//go:build overhead

package esd

import (
	"slices"
	"testing"
	"time"
)

// overheadBound is the most that metrics plus the flight recorder may
// cost a System write, as a ratio of the telemetry-off time.
const overheadBound = 1.10

// TestTelemetryOverheadGate gates what telemetry costs a write as a ratio
// measured within one run, which survives the runner's clock drift because
// both sides see it. Three Systems — telemetry off, metrics, and metrics
// plus the flight recorder — replay one write stream in rounds: each
// round times one block of writes on every System, adjacent in time, in
// an order that rotates from round to round. The median over rounds of
// the metrics+flight block's per-op time relative to the off block's must
// stay within overheadBound. Pairing blocks of the same round cancels
// both the drift and the cost that the stream itself changes from block
// to block. The test also logs what the ratio is made of: the median
// per-write time of the off System, and the median over rounds of what
// metrics+flight add to it, in ns per write. A timing gate, it builds
// only with the overhead tag, so it runs from `make overhead-check` alone
// and never beside other packages' tests; it is skipped under -race,
// which would measure the detector.
func TestTelemetryOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate: meaningless under -race")
	}
	configs := []struct {
		name string
		opts []SystemOption
	}{
		{"off", nil},
		{"metrics", []SystemOption{WithMetrics()}},
		{"metrics+flight", []SystemOption{WithMetrics(), WithFlightRecorder(256)}},
	}
	systems := make([]*System, len(configs))
	for i, c := range configs {
		cfg := DefaultConfig()
		cfg.PCM.CapacityBytes = 1 << 30
		sys, err := NewSystem(cfg, SchemeESD, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	// The stream of BenchmarkStageTracingOverhead: 512 distinct contents
	// over 64 Ki addresses, so dedup hits, misses and collisions all occur.
	const block, rounds, warm = 512, 200, 8
	var line Line
	perOp := func(sys *System, first int) float64 {
		start := time.Now()
		for i := first; i < first+block; i++ {
			line.SetWord(0, uint64(i)%512)
			sys.Write(uint64(i)%65536, line)
		}
		return float64(time.Since(start).Nanoseconds()) / block
	}
	ratios := make([][]float64, len(systems))
	var offNs, costNs []float64
	for r := 0; r < warm+rounds; r++ {
		var ns [3]float64
		for k := range systems {
			i := (r + k) % len(systems)
			ns[i] = perOp(systems[i], r*block)
		}
		if r >= warm {
			for i := range ns {
				ratios[i] = append(ratios[i], ns[i]/ns[0])
			}
			offNs = append(offNs, ns[0])
			costNs = append(costNs, ns[2]-ns[0])
		}
	}
	median := func(xs []float64) float64 {
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	med := make([]float64, len(systems))
	for i := range ratios {
		med[i] = median(ratios[i])
	}
	t.Logf("per-op time relative to off, median of %d rounds: metrics %.3f, metrics+flight %.3f", rounds, med[1], med[2])
	t.Logf("off: median %.0f ns per write; metrics+flight: median %.0f ns per write over off", median(offNs), median(costNs))
	if med[2] > overheadBound {
		t.Errorf("metrics+flight costs %.3f x telemetry off per write, want at most %.2f", med[2], overheadBound)
	}
}
