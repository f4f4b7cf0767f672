package telemetry

import (
	"strings"
	"testing"
	"time"
)

func at(s float64) time.Time {
	return time.Unix(1_700_000_000, 0).Add(time.Duration(s * float64(time.Second)))
}

func TestRollingSteadyRate(t *testing.T) {
	r := NewRolling(10*time.Second, 10)
	// 100 ops/s sampled once a second.
	var v uint64
	for i := 0; i <= 5; i++ {
		r.Observe(at(float64(i)), v)
		v += 100
	}
	got := r.Rate(at(5))
	if got < 99 || got > 101 {
		t.Fatalf("steady rate = %g, want ~100", got)
	}
}

func TestRollingSingleSampleIsZero(t *testing.T) {
	r := NewRolling(10*time.Second, 10)
	if rate := r.Rate(at(0)); rate != 0 {
		t.Fatalf("empty aggregator rate = %g, want 0", rate)
	}
	r.Observe(at(0), 42)
	if rate := r.Rate(at(0)); rate != 0 {
		t.Fatalf("single-sample rate = %g, want 0", rate)
	}
}

func TestRollingWindowRollover(t *testing.T) {
	r := NewRolling(10*time.Second, 10)
	// A burst at t=0..2, then silence; by t=20 every burst slot has aged
	// out of the 10 s window and only fresh (flat) samples remain.
	r.Observe(at(0), 0)
	r.Observe(at(1), 1000)
	r.Observe(at(2), 2000)
	if rate := r.Rate(at(2)); rate < 999 || rate > 1001 {
		t.Fatalf("burst rate = %g, want ~1000", rate)
	}
	r.Observe(at(20), 2000)
	r.Observe(at(21), 2000)
	if rate := r.Rate(at(21)); rate != 0 {
		t.Fatalf("post-rollover rate = %g, want 0 (burst slots aged out)", rate)
	}
	// Rate with no recent observations at all: everything out of window.
	if rate := r.Rate(at(60)); rate != 0 {
		t.Fatalf("stale rate = %g, want 0", rate)
	}
}

func TestRollingZeroTrafficWindows(t *testing.T) {
	r := NewRolling(10*time.Second, 10)
	for i := 0; i <= 8; i++ {
		r.Observe(at(float64(i)), 500) // counter never moves
	}
	if rate := r.Rate(at(8)); rate != 0 {
		t.Fatalf("zero-traffic rate = %g, want 0", rate)
	}
	// Traffic resumes: rate reflects only the new delta.
	r.Observe(at(9), 700)
	got := r.Rate(at(9))
	if got <= 0 || got > 700.0/8 {
		t.Fatalf("resumed rate = %g, want in (0, %g]", got, 700.0/8)
	}
}

func TestRollingCounterReset(t *testing.T) {
	r := NewRolling(10*time.Second, 10)
	r.Observe(at(0), 10000)
	r.Observe(at(1), 11000)
	if rate := r.Rate(at(1)); rate < 999 || rate > 1001 {
		t.Fatalf("pre-reset rate = %g, want ~1000", rate)
	}
	// Counter restarts from zero (process restart): the ring must clear
	// instead of producing a wrapped/negative delta.
	r.Observe(at(2), 0)
	if rate := r.Rate(at(2)); rate != 0 {
		t.Fatalf("rate right after reset = %g, want 0", rate)
	}
	r.Observe(at(3), 50)
	r.Observe(at(4), 100)
	got := r.Rate(at(4))
	if got < 49 || got > 51 {
		t.Fatalf("rebuilt rate = %g, want ~50", got)
	}
}

func TestRollingObserveRate(t *testing.T) {
	r := NewRolling(4*time.Second, 4)
	if got := r.ObserveRate(at(0), 0); got != 0 {
		t.Fatalf("first ObserveRate = %g, want 0", got)
	}
	got := r.ObserveRate(at(2), 500)
	if got < 249 || got > 251 {
		t.Fatalf("ObserveRate = %g, want ~250", got)
	}
	if w := r.Window(); w != 4*time.Second {
		t.Fatalf("Window = %v, want 4s", w)
	}
	// Nil receiver is a no-op, matching the rest of the telemetry layer.
	var nilR *Rolling
	nilR.Observe(at(0), 1)
	if nilR.ObserveRate(at(1), 2) != 0 || nilR.Rate(at(1)) != 0 {
		t.Fatal("nil Rolling must report 0")
	}
}

func TestFloatFuncExposition(t *testing.T) {
	reg := NewRegistry()
	v := 0.25
	reg.FloatFunc("esd_test_ratio", "a derived ratio", func() float64 { return v })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE esd_test_ratio gauge") {
		t.Fatalf("missing TYPE header:\n%s", out)
	}
	if !strings.Contains(out, "esd_test_ratio 0.25") {
		t.Fatalf("missing value line:\n%s", out)
	}
	v = 0.5 // computed at scrape time, not registration time
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "esd_test_ratio 0.5") {
		t.Fatalf("FloatFunc not re-evaluated:\n%s", sb.String())
	}
	sb.Reset()
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"esd_test_ratio": 0.5`) {
		t.Fatalf("JSON exposition missing FloatFunc:\n%s", sb.String())
	}
}

func TestDeviceHealthGauges(t *testing.T) {
	s := NewSink(Options{})
	s.RegisterDeviceHealth(func() DeviceHealth {
		return DeviceHealth{MaxWear: 40, P99Wear: 15, MeanWear: 4, WearSkew: 10, ReadEnergyNJ: 1.5, WriteEnergyNJ: 6.0}
	})
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"esd_device_wear_max 40",
		"esd_device_wear_p99 15",
		"esd_device_wear_mean 4",
		"esd_device_wear_skew 10",
		"esd_device_energy_read_nj 1.5",
		"esd_device_energy_write_nj 6",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
	// Nil-safety: both receiver and callback.
	var nilSink *Sink
	nilSink.RegisterDeviceHealth(nil)
	nilSink.RegisterDeviceHealth(func() DeviceHealth { return DeviceHealth{} })
	nilSink.CountFrom(CompareMismatches, func() uint64 { return 1 })
	s.RegisterDeviceHealth(nil)
}

func TestHybridHealthGauges(t *testing.T) {
	s := NewSink(Options{})
	s.RegisterHybridHealth(func() HybridHealth {
		return HybridHealth{
			DRAMHits: 10, DRAMMisses: 5, Promotions: 4, Demotions: 2,
			Writebacks: 1, WALAppends: 7, AbsorbedWrites: 7,
			CapacityLines: 1024, ResidentLines: 2, DirtyLines: 1,
		}
	})
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"esd_hybrid_dram_hit_total 10",
		"esd_hybrid_dram_miss_total 5",
		"esd_hybrid_promotions_total 4",
		"esd_hybrid_demotions_total 2",
		"esd_hybrid_writebacks_total 1",
		"esd_hybrid_wal_appends_total 7",
		"esd_hybrid_absorbed_writes_total 7",
		"esd_hybrid_capacity_lines 1024",
		"esd_hybrid_resident_lines 2",
		"esd_hybrid_dirty_lines 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
	// Nil-safety: both receiver and callback must be no-ops, not panics.
	var nilSink *Sink
	nilSink.RegisterHybridHealth(nil)
	nilSink.RegisterHybridHealth(func() HybridHealth { return HybridHealth{} })
	s.RegisterHybridHealth(nil)
}

func TestDedupEffectivenessGauges(t *testing.T) {
	s := NewSink(Options{})
	// The scheme's own byte-compare counts, as its Stats keeps them.
	var compares, mismatches uint64
	s.CountFrom(CompareReads, func() uint64 { return compares })
	s.CountFrom(CompareMismatches, func() uint64 { return mismatches })
	// 3 writes: 2 dedup hits, 1 unique; 2 byte-compares, 1 mismatch.
	s.OnWrite(DecDupFPCache, 1, 1, true, 0, 100, nil)
	s.OnWrite(DecDupFPCache, 2, 1, true, 0, 100, nil)
	s.OnWrite(DecUniqueCollision, 3, 3, false, 0, 100, nil)
	compares, mismatches = 2, 1
	s.Publish() // the hooks stage; the owner publishes before a read
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"esd_dedup_bytes_saved_total 128",
		"esd_compare_reads_total 2",
		"esd_compare_mismatches_total 1",
		"esd_dedup_hit_rate 0.666666",
		"esd_fp_collision_rate 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
}
