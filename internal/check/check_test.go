package check

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/esdsim/esd/internal/core"
	"github.com/esdsim/esd/internal/dedup"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
)

func TestCollisionDelta(t *testing.T) {
	d := CollisionDelta()
	if d == 0 {
		t.Fatal("collision delta is zero")
	}
	if got := ecc.EncodeWord(d); got != 0 {
		t.Fatalf("EncodeWord(delta) = %#x, want 0", got)
	}
	// XORing the delta into any word preserves the full line fingerprint
	// while changing the content.
	var a ecc.Line
	for w := 0; w < ecc.WordsPerLine; w++ {
		a.SetWord(w, uint64(w)*0x0123456789ABCDEF+1)
	}
	b := a
	b.SetWord(3, b.Word(3)^d)
	if a == b {
		t.Fatal("delta did not change the line")
	}
	if ecc.EncodeLine(&a) != ecc.EncodeLine(&b) {
		t.Fatal("crafted sibling has a different fingerprint")
	}
}

func TestGenDeterministic(t *testing.T) {
	cfg := DefaultGen()
	cfg.Ops = 5000
	g1, g2 := NewGen(cfg, 42), NewGen(cfg, 42)
	for i := 0; i < cfg.Ops; i++ {
		a, ok1 := g1.Next()
		b, ok2 := g2.Next()
		if !ok1 || !ok2 {
			t.Fatalf("op %d: generator ended early", i)
		}
		if a != b {
			t.Fatalf("op %d: same seed diverged: %v vs %v", i, a, b)
		}
	}
	if _, ok := g1.Next(); ok {
		t.Fatal("generator exceeded Ops")
	}

	// A different seed must diverge somewhere.
	g3 := NewGen(cfg, 43)
	g4 := NewGen(cfg, 42)
	same := true
	for i := 0; i < cfg.Ops; i++ {
		a, _ := g3.Next()
		b, _ := g4.Next()
		if a != b {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 generated identical streams")
	}
}

// TestRunSmall is the tier-1 face of the differential checker: every scheme,
// single and sharded, writes run queued and inline, against the oracle.
func TestRunSmall(t *testing.T) {
	gen := DefaultGen()
	gen.Ops = 4000
	res, err := Run(Config{Gen: gen, Seed: 7, Shards: []int{1, 2}, AuditEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.Ops != 4000 {
		t.Fatalf("ran %d ops, want 4000", res.Ops)
	}
	// Five schemes (canonical four + esd+caram), each single plus
	// 2 shard counts x 2 owners.
	if want := 5 * (1 + 2*2); len(res.Engines) != want {
		t.Fatalf("%d engine variants, want %d", len(res.Engines), want)
	}
	for _, want := range []string{"esd/single", "esd/shards=2,queued", "esd/shards=2,inline", "esd+caram/shards=1,inline"} {
		if !slices.Contains(res.Engines, want) {
			t.Errorf("no engine %q in %v", want, res.Engines)
		}
	}
}

// TestRunMigrateGen runs the migration-heavy profile: the Zipf hot set
// relocates every eighth of the run, so the hybrid tier's promotion, LRU
// demotion and dirty-writeback paths all churn while the oracle watches.
func TestRunMigrateGen(t *testing.T) {
	gen := MigrateGen()
	gen.Ops = 6000
	gen.PhaseEvery = gen.Ops / 8
	res, err := Run(Config{Gen: gen, Seed: 17, Shards: []int{2}, AuditEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	// The profile must actually exercise migration on the hybrid variant —
	// probed with an even smaller buffer (256 lines) so a short run already
	// saturates capacity.
	cfg := checkConfig()
	cfg.Media.DRAM.CapacityBytes = 16 << 10
	se, err := newSingleEngine(cfg, "esd+caram")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGen(gen, 17)
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case OpWrite:
			se.write(op.Addr, op.Line)
		case OpRead:
			se.read(op.Addr)
		}
	}
	st := se.env.Hybrid().Snapshot()
	if st.Promotions == 0 || st.Demotions == 0 || st.Writebacks == 0 {
		t.Fatalf("migration profile left the tier idle: %+v", st)
	}
}

// TestRunBatchFraction routes most write and read runs through the
// batched APIs on every variant — single engines via memctrl.WriteBatch,
// sharded via Engine.WriteBatch and Engine.ReadBatch — and must stay
// divergence-free against the oracle.
func TestRunBatchFraction(t *testing.T) {
	gen := DefaultGen()
	gen.Ops = 4000
	res, err := Run(Config{Gen: gen, Seed: 9, Shards: []int{1, 2}, AuditEvery: 500, BatchFraction: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.Ops != 4000 {
		t.Fatalf("ran %d ops, want 4000", res.Ops)
	}
}

// TestRunBatchDeterministic pins the seed-derived batching coin: two
// identical batched runs must agree op for op.
func TestRunBatchDeterministic(t *testing.T) {
	gen := DefaultGen()
	gen.Ops = 2000
	cfg := Config{Gen: gen, Seed: 13, Shards: []int{2}, AuditEvery: 500, BatchFraction: 0.5}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Writes != r2.Writes || r1.Reads != r2.Reads || len(r1.Violations) != len(r2.Violations) {
		t.Fatalf("batched runs diverged: %+v vs %+v", r1, r2)
	}
	if len(r1.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", r1.Violations)
	}
}

// TestBatchInjectedBugCaught is the batch checker's own acceptance test:
// corrupt one batched write before the engines see it (the oracle keeps
// the original) and the very next differential read or final sweep must
// flag the divergence. If the batch plumbing silently dropped, reordered
// or rewrote ops, this is the test that would not fail.
func TestBatchInjectedBugCaught(t *testing.T) {
	gen := DefaultGen()
	gen.Ops = 3000
	corrupted := 0
	cfg := Config{
		Gen: gen, Seed: 21, Shards: []int{2},
		AuditEvery: -1, BatchFraction: 1.0,
		mutateBatch: func(items []batchItem) []batchItem {
			// Flip one word of the middle op of every batched run.
			if len(items) < 2 {
				return items
			}
			corrupted++
			out := append([]batchItem(nil), items...)
			mid := len(out) / 2
			out[mid].line.SetWord(0, out[mid].line.Word(0)^0xDEAD)
			return out
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("mutation hook never fired — no batched run formed")
	}
	if res.Ok() {
		t.Fatal("injected batch corruption went undetected by the differential checker")
	}
}

// TestBatchReadSwapCaught is the read-side twin of
// TestBatchInjectedBugCaught: swap two differing results of every batched
// read run before they are compared, and the oracle comparison must flag
// it. If batched reads were never compared, or compared against the wrong
// op, this is the test that would not fail.
func TestBatchReadSwapCaught(t *testing.T) {
	gen := DefaultGen()
	gen.Ops = 3000
	swapped := 0
	cfg := Config{
		Gen: gen, Seed: 21, Shards: []int{2},
		AuditEvery: -1, BatchFraction: 1.0,
		mutateReads: func(got []readGot) {
			for i := 1; i < len(got); i++ {
				if got[i] != got[0] {
					got[0], got[i] = got[i], got[0]
					swapped++
					return
				}
			}
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if swapped == 0 {
		t.Fatal("mutation hook never swapped — no batched read run with differing results formed")
	}
	if res.Ok() {
		t.Fatal("swapped batch read results went undetected by the differential checker")
	}
	for _, v := range res.Violations {
		if !strings.Contains(v.Msg, "read addr=") {
			t.Fatalf("caught something, but not a read divergence: %v", v)
		}
	}
}

func TestRunUptoReplaysPrefix(t *testing.T) {
	gen := DefaultGen()
	gen.Ops = 3000
	res, err := Run(Config{Gen: gen, Seed: 3, Upto: 500, Shards: []int{}, Schemes: []string{"esd"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 500 {
		t.Fatalf("Upto=500 executed %d ops", res.Ops)
	}
}

func TestRunDeterministic(t *testing.T) {
	gen := DefaultGen()
	gen.Ops = 2000
	cfg := Config{Gen: gen, Seed: 11, Shards: []int{2}, AuditEvery: 500}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Writes != r2.Writes || r1.Reads != r2.Reads || r1.Crashes != r2.Crashes {
		t.Fatalf("same seed produced different op mixes: %+v vs %+v", r1, r2)
	}
	if len(r1.Violations) != 0 || len(r2.Violations) != 0 {
		t.Fatalf("unexpected violations: %v / %v", r1.Violations, r2.Violations)
	}
}

// TestCollisionLinesExerciseCompare verifies the adversarial generator does
// what it claims: the crafted same-fingerprint lines must actually reach
// ESD's byte-by-byte comparison and be rejected there (otherwise the
// dedup-safety probe would be testing nothing).
func TestCollisionLinesExerciseCompare(t *testing.T) {
	gen := DefaultGen()
	gen.Ops = 20000
	gen.CollisionRate = 0.05
	se, err := newSingleEngine(checkConfig(), "esd")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGen(gen, 5)
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case OpWrite:
			if bad := se.write(op.Addr, op.Line); len(bad) != 0 {
				t.Fatalf("dedup safety: %v", bad)
			}
		case OpRead:
			se.read(op.Addr)
		}
	}
	if st := se.sch.Stats(); st.CompareMismatches == 0 {
		t.Fatalf("no fingerprint collisions reached the byte compare (CompareReads=%d)", st.CompareReads)
	}
}

// TestInjectedRefcountBugCaught is the checker's own acceptance test: a
// deliberately corrupted reference count must be detected by the next
// audit, on a single engine and on one shard of a sharded engine at either
// owner (injected there through the shard's barrier), with a violation
// that names the failure. A counter rolled back on one shard must be
// reported as pad reuse.
func TestInjectedRefcountBugCaught(t *testing.T) {
	for _, scheme := range DefaultSchemes() {
		if scheme == "baseline" {
			continue // no refcounts to corrupt
		}
		t.Run(scheme, func(t *testing.T) {
			se, err := newSingleEngine(checkConfig(), scheme)
			if err != nil {
				t.Fatal(err)
			}
			auditCatches(t, se, func() string {
				if _, ok := corruptRefcount(se.sch); !ok {
					t.Fatal("no mapped physical line to corrupt")
				}
				return "refcount"
			})

			for _, owner := range []string{ownerQueued, ownerInline} {
				t.Run("shards=4,"+owner, func(t *testing.T) {
					sh := newTestShardEngine(t, scheme, owner)
					auditCatches(t, sh, func() string {
						found := false
						err := sh.eng.Barrier(func(id int, sch memctrl.Scheme, _ *memctrl.Env) {
							if id == 2 {
								_, found = corruptRefcount(sch)
							}
						})
						if err != nil || !found {
							t.Fatalf("no mapped physical line to corrupt on shard 2 (%v)", err)
						}
						return "shard 2: refcount"
					})
				})
			}
		})
	}
	// One row on esd/shards=4,queued.
	t.Run("counter-rollback", func(t *testing.T) {
		sh := newTestShardEngine(t, "esd", ownerQueued)
		auditCatches(t, sh, func() string {
			var line, counter uint64
			err := sh.eng.Barrier(func(id int, _ memctrl.Scheme, env *memctrl.Env) {
				if id != 1 {
					return
				}
				env.Crypto.RangeCounters(func(addr, c uint64) bool {
					line, counter = addr, c
					return c == 0
				})
				if counter > 0 {
					env.Crypto.Commit(line, counter-1)
				}
			})
			if err != nil || counter == 0 {
				t.Fatalf("no written line to roll back on shard 1 (%v)", err)
			}
			return fmt.Sprintf("shard 1: counter: line %d went backwards %d -> %d", line, counter, counter-1)
		})
	})
}

// auditCatches writes a short stream into e, requires a clean audit, runs
// inject, and requires the next audit to report what inject returns.
func auditCatches(t *testing.T, e engine, inject func() (want string)) {
	t.Helper()
	gen := DefaultGen()
	gen.Ops = 2000
	g := NewGen(gen, 1)
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if op.Kind == OpWrite {
			e.write(op.Addr, op.Line)
		}
	}
	if bad := e.audit(); len(bad) != 0 {
		t.Fatalf("audit dirty before injection: %v", bad)
	}
	want := inject()
	if bad := e.audit(); !strings.Contains(strings.Join(bad, "\n"), want) {
		t.Fatalf("injected corruption not reported as %q; audit says %v", want, bad)
	}
}

// corruptRefcount bumps the reference count of one mapped physical line
// of sch; ok is false when nothing is mapped.
func corruptRefcount(sch memctrl.Scheme) (victim uint64, ok bool) {
	var base *dedup.Base
	switch s := sch.(type) {
	case *core.ESD:
		base = &s.Base
	case *dedup.SHA1:
		base = &s.Base
	case *dedup.DeWrite:
		base = &s.Base
	default:
		return 0, false
	}
	base.AMT.Range(func(_, phys uint64) bool { victim, ok = phys, true; return false })
	if ok {
		base.Refs.Inc(victim)
	}
	return victim, ok
}

// newTestShardEngine builds a 4-shard engine of the checker's matrix.
func newTestShardEngine(t *testing.T, scheme, owner string) *shardEngine {
	t.Helper()
	sh, err := newShardEngine(checkConfig(), scheme, 4, owner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.close() })
	return sh
}

// TestConcurrentSmall drives the adversarial concurrent schedule; under
// `go test -race` this is the data-race probe for the sharded engine.
func TestConcurrentSmall(t *testing.T) {
	for _, scheme := range DefaultSchemes() {
		t.Run(scheme, func(t *testing.T) {
			cfg := DefaultConcurrent(scheme)
			cfg.Workers = 4
			cfg.OpsPerWorker = 500
			cfg.FaultBank = 2
			vios, err := RunConcurrent(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vios {
				t.Errorf("violation: %v", v)
			}
		})
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Engine: "esd/single", Op: 41, Msg: "boom"}
	if got := v.String(); got != "op 41: esd/single: boom" {
		t.Fatalf("Violation.String() = %q", got)
	}
}
