package telemetry

import (
	"testing"

	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
)

// BenchmarkSinkOnWrite prices the staged write hook alone, on an ESD
// unique-write breakdown: the sink's counts, latency histogram and stage set
// ("metrics"), plus a staged record ("metrics+flight"), and the stage set
// and a shard's ring records (a write's, a read's) by themselves.
func BenchmarkSinkOnWrite(b *testing.B) {
	bd := stats.Breakdown{FPLookupSRAM: 2000, ReadCompare: 23000, Encrypt: 40000, Media: 150000, Metadata: 2000}
	for _, c := range []struct {
		name   string
		flight *FlightRecorder
	}{{"metrics", nil}, {"metrics+flight", NewFlightRecorder(256)}} {
		b.Run(c.name, func(b *testing.B) {
			s := NewSink(Options{Flight: c.flight})
			for i := 0; i < b.N; i++ {
				s.OnWrite(DecUniqueCollision, uint64(i), uint64(i), false, sim.Time(i), sim.Time(i)+217000, &bd)
			}
		})
	}
	st := StagesFromBreakdown(&bd)
	b.Run("stages", func(b *testing.B) {
		h := NewLatencySet(NumStages)
		for i := 0; i < b.N; i++ {
			h.Record(&st)
		}
	})
	b.Run("flight", func(b *testing.B) {
		f := NewFlightRecorder(256)
		for i := 0; i < b.N; i++ {
			f.RecordWrite(0, TraceCtx{}, uint64(i), uint64(i), false, sim.Time(i), 217000, &st)
		}
	})
	b.Run("flight-read", func(b *testing.B) {
		f := NewFlightRecorder(256)
		for i := 0; i < b.N; i++ {
			f.RecordRead(0, TraceCtx{}, uint64(i), true, sim.Time(i), 83000)
		}
	})
}
