package esd

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/esdsim/esd/internal/check"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/xrand"
	"github.com/esdsim/esd/internal/xrand/quicktest"
)

// TestCrashLosesNoData is the §III-E consistency property: after a power
// failure that wipes every volatile structure, all previously written data
// remains readable under every scheme.
func TestCrashLosesNoData(t *testing.T) {
	for _, scheme := range append(SchemeNames(), SchemeESDCaram) {
		sys, err := NewSystem(smallConfig(), scheme)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(77)
		written := map[uint64]Line{}
		contents := make([]Line, 8)
		for i := range contents {
			contents[i].SetWord(0, r.Uint64())
		}
		for i := 0; i < 500; i++ {
			addr := r.Uint64n(64)
			line := contents[r.Intn(len(contents))]
			sys.Write(addr, line)
			written[addr] = line
		}

		sys.Crash()

		for addr, want := range written {
			got, ro := sys.Read(addr)
			if !ro.Hit || got != want {
				t.Fatalf("%s: line %d lost or corrupted after crash", scheme, addr)
			}
		}
	}
}

// TestCrashThenDedupContinues checks that ESD keeps working after losing
// the EFIT: dedup restarts cold but correctness and eventual dedup return.
func TestCrashThenDedupContinues(t *testing.T) {
	sys, err := NewSystem(smallConfig(), SchemeESD)
	if err != nil {
		t.Fatal(err)
	}
	hot := Line{42}
	sys.Write(1, hot)
	if out := sys.Write(2, hot); !out.Deduplicated {
		t.Fatal("no dedup before crash")
	}

	sys.Crash()

	// First post-crash duplicate write misses the (empty) EFIT and is
	// written as unique — selective dedup by design, no recovery pass.
	out := sys.Write(3, hot)
	if out.Deduplicated {
		t.Fatal("dedup hit immediately after EFIT loss")
	}
	// The fingerprint is back in the EFIT now; dedup resumes.
	if out := sys.Write(4, hot); !out.Deduplicated {
		t.Fatal("dedup did not resume after crash")
	}
	for _, addr := range []uint64{1, 2, 3, 4} {
		if got, ro := sys.Read(addr); !ro.Hit || got != hot {
			t.Fatalf("line %d wrong after crash/recovery", addr)
		}
	}
}

// TestCrashMidWorkloadProperty runs random write/crash/read interleavings
// under every scheme and verifies the read-back oracle.
func TestCrashMidWorkloadProperty(t *testing.T) {
	for _, scheme := range append(SchemeNames(), SchemeESDCaram) {
		scheme := scheme
		check := func(seed uint64) bool {
			sys, err := NewSystem(smallConfig(), scheme)
			if err != nil {
				return false
			}
			r := xrand.New(seed)
			oracle := map[uint64]Line{}
			var pool [4]Line
			for i := range pool {
				pool[i].SetWord(0, r.Uint64())
			}
			for step := 0; step < 300; step++ {
				switch {
				case r.Bool(0.02):
					sys.Crash()
				case r.Bool(0.5):
					addr := r.Uint64n(32)
					line := pool[r.Intn(len(pool))]
					sys.Write(addr, line)
					oracle[addr] = line
				default:
					addr := r.Uint64n(32)
					got, ro := sys.Read(addr)
					want, ok := oracle[addr]
					if ok && (!ro.Hit || got != want) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(check, quicktest.Config(t, 15)); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
	}
}

// TestCrashAtStepPoints is the crash-point table: for every scheme and
// every architecturally meaningful intermediate point in the write path —
// after the AMT mapping is installed but before refcounts are adjusted,
// after the encryption counter is bumped but before the ciphertext
// reaches the media queue, and (on the hybrid media tier) after the
// write-ahead log persist but before the DRAM install, and after the DRAM
// install but before the write returns — a power failure is injected
// exactly there (via memctrl.Env.StepHook), the in-flight write completes
// under eADR semantics (§III-E), and the recovered state must both read
// back exactly and satisfy every checker invariant. Each point runs in
// two write modes: scalar writes, where every crash fires inside a
// one-op batch, and runs of 1–12 writes through System.WriteBatch, where
// a crash can fire while an earlier op's store is still deferred.
func TestCrashAtStepPoints(t *testing.T) {
	points := []memctrl.StepPoint{memctrl.StepAMTUpdated, memctrl.StepCounterBumped}
	hybridPoints := []memctrl.StepPoint{memctrl.StepWALPersisted, memctrl.StepDRAMInstalled}
	for _, scheme := range append(SchemeNames(), SchemeESDCaram) {
		schemePoints := points
		if scheme == SchemeESDCaram {
			schemePoints = append(append([]memctrl.StepPoint(nil), points...), hybridPoints...)
		}
		for _, point := range schemePoints {
			if scheme == SchemeBaseline && point == memctrl.StepAMTUpdated {
				continue // the baseline has no AMT
			}
			t.Run(fmt.Sprintf("%s/%v", scheme, point), func(t *testing.T) {
				t.Run("scalar", func(t *testing.T) { crashAtStep(t, scheme, point, false) })
				t.Run("batch", func(t *testing.T) { crashAtStep(t, scheme, point, true) })
			})
		}
	}
}

// crashAtStep runs one cell of TestCrashAtStepPoints: five crashes, at the
// first to fifth occurrence of point, each in a fresh System.
func crashAtStep(t *testing.T, scheme string, point memctrl.StepPoint, batched bool) {
	for trigger := 1; trigger <= 5; trigger++ {
		sys, err := NewSystem(smallConfig(), scheme)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(900 + uint64(trigger))
		var pool [4]Line
		for i := range pool {
			pool[i].SetWord(0, r.Uint64())
		}

		// Arm the crash at the trigger-th occurrence of the point. The
		// hook runs inside the scheme's write; the write it interrupts
		// (and, in a batch, every op of it) still completes (eADR drains
		// in-flight operations), so the oracle keeps its lines.
		fired := false
		remaining := trigger
		sys.env.StepHook = func(p memctrl.StepPoint) {
			if fired || p != point {
				return
			}
			remaining--
			if remaining == 0 {
				fired = true
				sys.crash() // inside a write, which holds the owner lock
			}
		}

		oracle := map[uint64]Line{}
		var ops []WriteBatchOp
		write := func(n int) {
			for n > 0 {
				k := 1
				if batched {
					k = min(1+r.Intn(12), n)
				}
				ops = ops[:0]
				for i := 0; i < k; i++ {
					addr := r.Uint64n(48)
					line := pool[r.Intn(len(pool))]
					if r.Bool(0.3) {
						line.SetWord(1, r.Uint64()) // unique content
					}
					ops = append(ops, WriteBatchOp{Addr: addr, Line: line})
				}
				if batched {
					sys.WriteBatch(ops)
				} else {
					sys.Write(ops[0].Addr, ops[0].Line)
				}
				for _, op := range ops {
					oracle[op.Addr] = op.Line
				}
				n -= k
			}
		}
		write(200)
		if !fired {
			t.Fatalf("trigger %d: %v never fired in 200 writes", trigger, point)
		}
		sys.env.StepHook = nil

		verify := func(stage string) {
			for addr, want := range oracle {
				got, ro := sys.Read(addr)
				if !ro.Hit || got != want {
					t.Fatalf("trigger %d (%s): line %d lost or corrupted", trigger, stage, addr)
				}
			}
			bad := check.AuditScheme(sys.scheme)
			if h := sys.env.Hybrid(); h != nil {
				bad = append(bad, h.Audit()...)
			}
			if len(bad) != 0 {
				t.Fatalf("trigger %d (%s): invariants violated after crash: %v", trigger, stage, bad)
			}
		}
		verify("post-crash")

		// The system must keep absorbing writes correctly after the
		// mid-write crash, not just preserve old data.
		write(100)
		verify("post-recovery")
	}
}
