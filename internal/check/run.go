package check

import (
	"fmt"

	"github.com/esdsim/esd/internal/config"
)

// Config parameterizes one differential run.
type Config struct {
	// Gen shapes the workload (DefaultGen if zero Ops).
	Gen GenConfig
	// Seed drives the generator; the same (Gen, Seed) pair replays the
	// exact same op stream.
	Seed uint64
	// Schemes lists the schemes to check (default: DefaultSchemes).
	Schemes []string
	// Shards lists the shard counts of the sharded variants per scheme
	// (default 1, 2, 8; nil keeps the default, an explicit empty slice
	// disables sharded variants). Each count yields two variants, one per
	// owner of its writes: queued and inline (see shardEngine).
	Shards []int
	// AuditEvery runs the invariant audits on every engine every K ops
	// and after the final sweep (default 2000; <0 disables them all).
	AuditEvery int
	// Upto stops after this many ops (0 = the full Gen.Ops), replaying the
	// failing prefix of an earlier run.
	Upto int
	// MaxViolations stops the run early once this many violations
	// accumulated (default 10).
	MaxViolations int
	// BatchFraction, in (0,1], routes that fraction of consecutive-write
	// runs through the engines' batched write APIs (memctrl.WriteBatch on
	// the single engines, Engine.WriteBatch on the sharded ones), and that
	// fraction of consecutive-read runs through Engine.ReadBatch on the
	// sharded ones, instead of scalar ops. The choice is drawn from a
	// seed-derived RNG so runs replay exactly. 0 disables batching (the
	// default).
	BatchFraction float64
	// mutateBatch, when non-nil, rewrites each batched write run before
	// the engines see it while the oracle keeps the originals — a
	// test-only hook proving batch/scalar divergence is caught.
	mutateBatch func(items []batchItem) []batchItem
	// mutateReads, when non-nil, rewrites each engine's results of a
	// batched read run before they are compared — the read-side hook.
	mutateReads func(got []readGot)
	// SysCfg overrides the system configuration (zero = checkConfig()).
	SysCfg *config.Config
	// Progress, when non-nil, is called every few thousand ops.
	Progress func(done, total int)
}

// Result reports one differential run.
type Result struct {
	// Ops is the number of ops executed.
	Ops int
	// Writes/Reads/Crashes decompose the executed ops.
	Writes, Reads, Crashes int
	// Engines lists the engine variants checked.
	Engines []string
	// Violations are the failures, each pinned to an op index.
	Violations []Violation
}

// Ok reports whether the run found no violations.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// checkConfig returns the system configuration the checker runs under: the
// Table I defaults shrunk to a 64 MiB device so the 35 engine variants of
// the default matrix fit in memory, with SRAM caches shrunk too so
// eviction/refill paths actually exercise under a small address footprint.
func checkConfig() config.Config {
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 26
	cfg.Meta.EFITCacheBytes = 16 << 10
	cfg.Meta.AMTCacheBytes = 16 << 10
	cfg.SHA1.FPCacheBytes = 16 << 10
	cfg.DeWrite.FPCacheBytes = 16 << 10
	// Hybrid-media variants: a DRAM buffer far smaller than the generator's
	// address footprint (1024 lines vs 8192 hot-skewed addresses), an eager
	// promotion threshold and a short WAL, so promotion, LRU demotion,
	// dirty writeback and log rotation all churn constantly instead of the
	// buffer swallowing the working set.
	cfg.Media.DRAM.CapacityBytes = 64 << 10
	cfg.Media.PromoteThreshold = 2
	cfg.Media.DecayEvery = 2048
	cfg.Media.WALLines = 64
	return cfg
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Gen.Ops == 0 {
		out.Gen = DefaultGen()
	}
	if len(out.Schemes) == 0 {
		out.Schemes = DefaultSchemes()
	}
	if out.Shards == nil {
		out.Shards = []int{1, 2, 8}
	}
	if out.AuditEvery == 0 {
		out.AuditEvery = 2000
	}
	if out.MaxViolations == 0 {
		out.MaxViolations = 10
	}
	return out
}

// Run executes one differential + invariant checking pass: a single
// generated op stream applied to the oracle and every engine variant, with
// periodic white-box audits. It returns an error only for harness-level
// failures (bad scheme name, engine construction); divergences and
// invariant violations land in Result.Violations.
func Run(cfg Config) (*Result, error) {
	rc := cfg.withDefaults()
	sys := checkConfig()
	if rc.SysCfg != nil {
		sys = *rc.SysCfg
	}

	var engines []engine
	defer func() {
		for _, e := range engines {
			e.close()
		}
	}()
	for _, scheme := range rc.Schemes {
		se, err := newSingleEngine(sys, scheme)
		if err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
		engines = append(engines, se)
		for _, n := range rc.Shards {
			for _, owner := range []string{ownerQueued, ownerInline} {
				sh, err := newShardEngine(sys, scheme, n, owner)
				if err != nil {
					return nil, fmt.Errorf("check: %w", err)
				}
				engines = append(engines, sh)
			}
		}
	}

	res := &Result{}
	for _, e := range engines {
		res.Engines = append(res.Engines, e.label())
	}

	oracle := NewOracle()
	gen := NewGen(rc.Gen, rc.Seed)
	limit := rc.Gen.Ops
	if rc.Upto > 0 && rc.Upto < limit {
		limit = rc.Upto
	}

	fail := func(eng string, op int, msg string) {
		res.Violations = append(res.Violations, Violation{Engine: eng, Op: op, Msg: msg})
	}

	b := newBatcher(rc.BatchFraction, rc.Seed)
	b.flushWrites = func(items []batchItem, batched bool) {
		if batched {
			if rc.mutateBatch != nil {
				items = rc.mutateBatch(items)
			}
			for _, e := range engines {
				for _, m := range e.writeBatch(items) {
					fail(e.label(), m.op, m.msg)
				}
			}
			return
		}
		for _, it := range items {
			for _, e := range engines {
				for _, msg := range e.write(it.addr, it.line) {
					fail(e.label(), it.op, msg)
				}
			}
		}
	}
	gotBuf := make([]readGot, maxPendingBatch)
	b.flushReads = func(items []readItem, batched bool) {
		got := gotBuf[:len(items)]
		for _, e := range engines {
			if batched {
				e.readBatch(items, got)
				if rc.mutateReads != nil {
					rc.mutateReads(got)
				}
			} else {
				for i, it := range items {
					got[i].line, got[i].hit, got[i].err = e.read(it.addr)
				}
			}
			for i, it := range items {
				if msg := it.check(got[i]); msg != "" {
					fail(e.label(), it.op, msg)
				}
			}
		}
	}

	for i := 0; i < limit; i++ {
		op, ok := gen.Next()
		if !ok {
			break
		}
		res.Ops++
		switch op.Kind {
		case OpWrite:
			res.Writes++
			oracle.Write(op.Addr, op.Line)
			b.write(batchItem{op: i, addr: op.Addr, line: op.Line})
		case OpRead:
			res.Reads++
			want, wantHit := oracle.Read(op.Addr)
			b.read(readItem{op: i, addr: op.Addr, want: want, wantHit: wantHit})
		case OpCrash:
			b.flush()
			res.Crashes++
			for _, e := range engines {
				e.crash()
			}
		}
		if rc.AuditEvery > 0 && (i+1)%rc.AuditEvery == 0 {
			b.flush()
			for _, e := range engines {
				for _, msg := range e.audit() {
					fail(e.label(), i, msg)
				}
			}
		}
		if len(res.Violations) >= rc.MaxViolations {
			return res, nil
		}
		if rc.Progress != nil && (i+1)%10000 == 0 {
			rc.Progress(i+1, limit)
		}
	}

	// Final sweep: every address the oracle ever saw must read back
	// identically on every engine, then one last audit.
	b.flush()
	lastOp := res.Ops - 1
	for addr := uint64(0); addr < rc.Gen.Addrs; addr++ {
		want, wantHit := oracle.Read(addr)
		if !wantHit {
			continue
		}
		for _, e := range engines {
			got, hit, err := e.read(addr)
			switch {
			case err != nil:
				fail(e.label(), lastOp, fmt.Sprintf("final sweep addr=%d: %v", addr, err))
			case !hit:
				fail(e.label(), lastOp, fmt.Sprintf("final sweep addr=%d: written line lost", addr))
			case got != want:
				fail(e.label(), lastOp, fmt.Sprintf("final sweep addr=%d: data diverges from oracle", addr))
			}
			if len(res.Violations) >= rc.MaxViolations {
				return res, nil
			}
		}
	}
	if rc.AuditEvery >= 0 {
		for _, e := range engines {
			for _, msg := range e.audit() {
				fail(e.label(), lastOp, msg)
			}
		}
	}
	return res, nil
}
