package telemetry

import (
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/sim"
)

// TestFlightRecorderConcurrentRecordDump hammers record() from several
// writers while dump goroutines Snapshot continuously — the exact
// contention the try-lock protocol exists for. Every field of a record is
// derived from its trace id, so a torn record (fields from two different
// writes in one slot) is detectable in any snapshot. Run under -race this
// is also the recorder's data-race probe.
func TestFlightRecorderConcurrentRecordDump(t *testing.T) {
	const (
		writers   = 4
		perWriter = 5000
		dumpers   = 2
	)
	f := NewFlightRecorder(64)

	checkRecords := func(recs []Record, stage string) {
		lastSeq := uint64(0)
		for _, r := range recs {
			if r.Seq <= lastSeq {
				t.Errorf("%s: snapshot out of order: seq %d after %d", stage, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
			// Self-consistency: addr, phys, at and lat are all functions of
			// the trace id; any mismatch means the record was torn.
			if r.Addr != r.Trace ||
				r.AtNs != sim.Time(r.Trace).Nanoseconds() ||
				r.LatNs != sim.Time(r.Trace+1).Nanoseconds() {
				t.Errorf("%s: torn record: %+v", stage, r)
			}
			if r.Kind == "write" && r.Phys != r.Trace^0xFFFF {
				t.Errorf("%s: torn write record: %+v", stage, r)
			}
		}
		if len(recs) > f.Cap() {
			t.Errorf("%s: snapshot holds %d records, cap %d", stage, len(recs), f.Cap())
		}
	}

	stop := make(chan struct{})
	var dumpWg sync.WaitGroup
	for d := 0; d < dumpers; d++ {
		dumpWg.Add(1)
		go func() {
			defer dumpWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					checkRecords(f.Snapshot(), "concurrent")
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i + 1)
				tc := TraceCtx{TraceID: id}
				if i%3 == 0 {
					f.RecordRead(w, tc, id, true, sim.Time(id), sim.Time(id+1))
				} else {
					f.RecordWrite(w, tc, id, id^0xFFFF, i%2 == 0, sim.Time(id), sim.Time(id+1), nil)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	dumpWg.Wait()

	// Quiescent: nothing contends the slots now, so the only losses are
	// records dropped while a dump held their slot. Drops must be rare —
	// the ring must still be overwhelmingly populated.
	final := f.Snapshot()
	checkRecords(final, "final")
	if len(final) < f.Cap()/2 {
		t.Fatalf("only %d of %d slots survived concurrent dumping (unbounded drops?)", len(final), f.Cap())
	}
	if f.Len() != f.Cap() {
		t.Fatalf("Len() = %d, want full ring %d", f.Len(), f.Cap())
	}
}
