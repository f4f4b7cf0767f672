package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/xrand"
	"github.com/esdsim/esd/internal/xrand/quicktest"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	h.Record(100 * sim.Nanosecond)
	h.Record(200 * sim.Nanosecond)
	h.Record(300 * sim.Nanosecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 100*sim.Nanosecond || h.Max() != 300*sim.Nanosecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 200*sim.Nanosecond {
		t.Fatalf("Mean = %v, want 200ns", got)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	var h Histogram
	r := xrand.New(1)
	values := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		// Log-normal-ish latencies between ~50ns and ~5us.
		v := 50 * math.Exp(r.Float64()*4.6)
		values = append(values, v)
		h.Record(sim.Time(v * float64(sim.Nanosecond)))
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		exact := Percentile(values, p)
		approx := h.Percentile(p).Nanoseconds()
		if math.Abs(approx-exact)/exact > 0.10 {
			t.Errorf("P%.0f: histogram %.1fns vs exact %.1fns", p*100, approx, exact)
		}
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	check := func(seed uint64) bool {
		var h Histogram
		r := xrand.New(seed)
		for i := 0; i < 200; i++ {
			h.Record(sim.Time(r.Intn(1000000)) * sim.Nanosecond / 100)
		}
		last := sim.Time(-1)
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(check, quicktest.Config(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramExtremePercentiles(t *testing.T) {
	var h Histogram
	h.Record(10 * sim.Nanosecond)
	h.Record(1000 * sim.Nanosecond)
	if h.Percentile(0) != 10*sim.Nanosecond {
		t.Fatalf("P0 = %v", h.Percentile(0))
	}
	if h.Percentile(1) != 1000*sim.Nanosecond {
		t.Fatalf("P100 = %v", h.Percentile(1))
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5 * sim.Nanosecond)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatal("negative observation not clamped to zero")
	}
}

func TestHistogramCDF(t *testing.T) {
	var h Histogram
	if h.CDF() != nil {
		t.Fatal("empty CDF not nil")
	}
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i) * 10 * sim.Nanosecond)
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF for non-empty histogram")
	}
	last := 0.0
	for _, p := range cdf {
		if p.Frac < last || p.Frac > 1 {
			t.Fatalf("CDF not monotone: %+v", cdf)
		}
		last = p.Frac
	}
	if cdf[len(cdf)-1].Frac != 1 {
		t.Fatalf("CDF does not end at 1: %v", cdf[len(cdf)-1].Frac)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(100 * sim.Nanosecond)
	b.Record(300 * sim.Nanosecond)
	b.Record(500 * sim.Nanosecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 100*sim.Nanosecond || a.Max() != 500*sim.Nanosecond {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if a.Mean() != 300*sim.Nanosecond {
		t.Fatalf("merged mean = %v", a.Mean())
	}
	var empty Histogram
	a.Merge(&empty)
	if a.Count() != 3 {
		t.Fatal("merging empty changed count")
	}
}

func TestEnergyLedger(t *testing.T) {
	e := EnergyLedger{Media: 10, Fingerprint: 5, Crypto: 3, SRAM: 1, Compare: 1}
	if e.Total() != 20 {
		t.Fatalf("Total = %v", e.Total())
	}
	e.Add(EnergyLedger{Media: 5, Crypto: 2})
	if e.Media != 15 || e.Crypto != 5 || e.Total() != 27 {
		t.Fatalf("after Add: %+v", e)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{FPCompute: 10, Media: 20, Queue: 5}
	b.Add(Breakdown{FPCompute: 10, ReadCompare: 7})
	if b.FPCompute != 20 || b.ReadCompare != 7 {
		t.Fatalf("after Add: %+v", b)
	}
	if b.Total() != 20+20+5+7 {
		t.Fatalf("Total = %v", b.Total())
	}
	comps := b.Components()
	if len(comps) != 8 {
		t.Fatalf("%d components", len(comps))
	}
	var sum sim.Time
	for _, c := range comps {
		sum += c.Value
	}
	if sum != b.Total() {
		t.Fatal("components do not sum to total")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. X", "app", "speedup", "note")
	tb.AddRow("lbm", 3.4, "best")
	tb.AddRow("gcc", 1.25, "mid")
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	out := tb.String()
	for _, want := range []string{"Fig. X", "app", "speedup", "lbm", "3.400", "1.250", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4+1 { // title + header + separator + 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(3.0)
	tb.AddRow(123.456)
	tb.AddRow(0.5)
	out := tb.String()
	for _, want := range []string{"3\n", "123.5", "0.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %v", g)
	}
	if g := GeoMean([]float64{1, 0, -5, 1}); g != 1 {
		t.Fatalf("GeoMean skipping non-positive = %v", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
}

func TestMeanMaxPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if Mean(vals) != 3 {
		t.Fatalf("Mean = %v", Mean(vals))
	}
	if MaxOf(vals) != 5 {
		t.Fatalf("Max = %v", MaxOf(vals))
	}
	if Percentile(vals, 0.5) != 3 {
		t.Fatalf("P50 = %v", Percentile(vals, 0.5))
	}
	if Percentile(vals, 0) != 1 || Percentile(vals, 1) != 5 {
		t.Fatal("extreme percentiles wrong")
	}
	if Mean(nil) != 0 || MaxOf(nil) != 0 || Percentile(nil, 0.5) != 0 {
		t.Fatal("empty inputs not handled")
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	b.ReportAllocs()
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(sim.Time(i%100000) * sim.Nanosecond)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}) < 2.13 || StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}) > 2.15 {
		t.Fatalf("StdDev = %v", StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
	if StdDev([]float64{5}) != 0 || StdDev(nil) != 0 {
		t.Fatal("degenerate StdDev != 0")
	}
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("ignored title", "app", "value", "note")
	tb.AddRow("lbm", 3.5, "plain")
	tb.AddRow("odd,app", 1.0, `says "hi"`)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines:\n%s", len(lines), out)
	}
	if lines[0] != "app,value,note" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(out, `"odd,app"`) || !strings.Contains(out, `"says ""hi"""`) {
		t.Fatalf("quoting wrong:\n%s", out)
	}
	if strings.Contains(out, "ignored title") {
		t.Fatal("CSV contains the display title")
	}
}

// TestBucketOfMatchesLog10 holds the table lookup to the log10 rule it
// replaces: every time up to 3 µs, every bucket floor ±3 ps, and random
// times over the whole int64 range, negatives included.
func TestBucketOfMatchesLog10(t *testing.T) {
	check := func(ts sim.Time) {
		if got, want := bucketOf(ts), bucketLog10(ts); got != want {
			t.Fatalf("bucketOf(%d) = %d, log10 rule says %d", ts, got, want)
		}
	}
	for ts := sim.Time(0); ts <= 3_000_000; ts++ {
		check(ts)
	}
	for b := 1; b < histBuckets; b++ {
		for d := sim.Time(-3); d <= 3; d++ {
			check(bucketFloor[b] + d)
		}
	}
	r := xrand.New(7)
	for i := 0; i < 5_000_000; i++ {
		check(sim.Time(r.Uint64()))
	}
}

// TestHistogramOverflowReportsMax covers samples above the histogram's
// 10^7 ns range, such as a wall-clock hop after a 2 s timeout: their
// percentiles report the exact maximum, not the overflow bucket's nominal
// 10.75 ms bound, and EachBucket leaves them to the total count.
func TestHistogramOverflowReportsMax(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Record(2 * sim.Second)
	}
	for _, p := range []float64{0.5, 0.99} {
		if got := h.Percentile(p); got != 2*sim.Second {
			t.Errorf("P%v = %v, want 2s", p*100, got)
		}
	}
	if cdf := h.CDF(); len(cdf) != 1 || cdf[0].Latency != 2*sim.Second {
		t.Errorf("CDF = %+v, want one point at 2s", cdf)
	}
	h.EachBucket(func(upper sim.Time, n uint64) bool {
		t.Errorf("EachBucket visited (%v, %d) for samples above the range", upper, n)
		return true
	})

	// Mixed: the body stays bucketed, the tail reports the maximum.
	h.Record(100 * sim.Nanosecond)
	for i := 0; i < 89; i++ {
		h.Record(100 * sim.Nanosecond)
	}
	if p50 := h.Percentile(0.5); p50 > 110*sim.Nanosecond {
		t.Errorf("P50 = %v, want about 100ns", p50)
	}
	if p99 := h.Percentile(0.99); p99 != 2*sim.Second {
		t.Errorf("P99 = %v, want 2s", p99)
	}
	var finite uint64
	h.EachBucket(func(_ sim.Time, n uint64) bool { finite += n; return true })
	if finite != 90 || h.Count() != 100 {
		t.Errorf("finite buckets hold %d of %d, want 90 of 100", finite, h.Count())
	}
}

func BenchmarkBucketOf(b *testing.B) {
	ts := make([]sim.Time, 1024)
	r := xrand.New(1)
	for i := range ts {
		ts[i] = sim.Time(50 * math.Exp(r.Float64()*4.6) * float64(sim.Nanosecond))
	}
	b.Run("table", func(b *testing.B) {
		s := 0
		for i := 0; i < b.N; i++ {
			s += bucketOf(ts[i&1023])
		}
		_ = s
	})
	b.Run("log10", func(b *testing.B) {
		s := 0
		for i := 0; i < b.N; i++ {
			s += bucketLog10(ts[i&1023])
		}
		_ = s
	})
}
