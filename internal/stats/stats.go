// Package stats provides the measurement machinery shared by the
// simulator: log-bucketed latency histograms with percentile and CDF
// queries (tail-latency analysis, Fig. 15), an energy ledger broken down by
// component (Fig. 16), the per-request write-latency breakdown (Fig. 17),
// and a plain-text table renderer used by the figure harness.
package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"

	"github.com/esdsim/esd/internal/sim"
)

// histBucketsPerDecade controls histogram resolution: 32 log-spaced
// buckets per decade keeps percentile error under ~4%.
const histBucketsPerDecade = 32

// histDecades covers 1 ns .. 10^7 ns (10 ms) which bounds any sane
// memory-request latency.
const histDecades = 7

const histBuckets = histBucketsPerDecade*histDecades + 2 // underflow+overflow

// overflowBucket holds every sample at or above 10^7 ns, the top of the
// range. It has no finite upper bound: percentiles that land in it report
// the exact maximum, and exposition counts it only in the total.
const overflowBucket = histBuckets - 1

// Histogram is a log-bucketed latency histogram. The zero value is ready
// to use.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
	min    sim.Time
	max    sim.Time
}

// bucketLog10 is the bucketing rule: bucket 0 takes everything below
// 1 ns, bucket b >= 1 the samples whose log10(ns), scaled by the buckets
// per decade, truncates to b-1, and the overflow bucket the rest.
// bucketOf computes the same function from a threshold table.
func bucketLog10(t sim.Time) int {
	ns := t.Nanoseconds()
	if ns < 1 {
		return 0
	}
	b := 1 + int(math.Log10(ns)*histBucketsPerDecade)
	if b >= histBuckets {
		return overflowBucket
	}
	return b
}

// bucketFloor[b] is the smallest time that bucketLog10 puts in bucket b
// or above (b >= 1); bucketFloor[0] is unused.
//
// bucketStart[k] is the bucket of 2^(k-1) ps, the smallest time whose
// bit length is k: every time with bit length k falls in bucketStart[k]
// or one of the next few buckets (a power of two spans under 10).
var bucketFloor, bucketStart = bucketTables()

func bucketTables() (floor [histBuckets]sim.Time, start [65]uint8) {
	for b := 1; b < histBuckets; b++ {
		// The smallest t with bucketLog10(t) >= b, by binary search over
		// the monotone rule; TestBucketOfMatchesLog10 checks the result
		// against the rule itself.
		lo, hi := floor[b-1], sim.Time(math.MaxInt64)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if bucketLog10(mid) >= b {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		floor[b] = lo
	}
	for k := 1; k < len(start); k++ {
		start[k] = uint8(bucketLog10(sim.Time(uint64(1) << (k - 1))))
	}
	return floor, start
}

// bucketOf returns the bucket t lands in: the bucket of the smallest time
// with t's bit length, then a short forward scan over the floor table.
// It equals bucketLog10 for every t, for a fraction of the cost.
func bucketOf(t sim.Time) int {
	if t < bucketFloor[1] {
		return 0
	}
	b := int(bucketStart[bits.Len64(uint64(t))])
	for b < overflowBucket && t >= bucketFloor[b+1] {
		b++
	}
	return b
}

// bucketUpper returns the upper latency bound of bucket b (the overflow
// bucket's is nominal: see Histogram.upper).
func bucketUpper(b int) sim.Time {
	if b <= 0 {
		return 1 * sim.Nanosecond
	}
	ns := math.Pow(10, float64(b)/histBucketsPerDecade)
	return sim.Time(ns * float64(sim.Nanosecond))
}

// upper is the latency a percentile or CDF point in bucket b reports: the
// bucket's upper bound clamped to the observed extremes, or the exact
// maximum for the overflow bucket, whose nominal bound (10.75 ms) would
// understate every sample in it.
func (h *Histogram) upper(b int) sim.Time {
	if b == overflowBucket {
		return h.max
	}
	return min(max(bucketUpper(b), h.min), h.max)
}

// Record adds one latency observation.
func (h *Histogram) Record(t sim.Time) { h.RecordN(t, 1) }

// RecordN adds n observations of the same latency t: the histogram n
// calls of Record would build, since every latency is a whole number of
// picoseconds and float64 sums them exactly below 2^53 ps.
func (h *Histogram) RecordN(t sim.Time, n uint64) {
	if n == 0 {
		return
	}
	if t < 0 {
		t = 0
	}
	h.counts[bucketOf(t)] += n
	if h.n == 0 || t < h.min {
		h.min = t
	}
	if t > h.max {
		h.max = t
	}
	h.n += n
	h.sum += float64(t) * float64(n)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the summed latency of all observations in picoseconds.
func (h *Histogram) Sum() float64 { return h.sum }

// EachBucket calls fn for every non-empty bucket of the finite range in
// latency order with the bucket's upper latency bound and its
// (non-cumulative) count, stopping early if fn returns false. Samples at
// or above 10^7 ns have no finite bucket: only Count includes them, as
// Prometheus's le="+Inf" bucket does. Exposition formats are built on this
// without touching the internal layout.
func (h *Histogram) EachBucket(fn func(upper sim.Time, count uint64) bool) {
	for b := 0; b < overflowBucket; b++ {
		if h.counts[b] == 0 {
			continue
		}
		if !fn(bucketUpper(b), h.counts[b]) {
			return
		}
	}
}

// Mean returns the mean latency (0 if empty).
func (h *Histogram) Mean() sim.Time {
	if h.n == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.n))
}

// Min and Max return the exact extremes (0 if empty).
func (h *Histogram) Min() sim.Time { return h.min }

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() sim.Time { return h.max }

// Percentile returns the latency at quantile p in [0, 1], approximated by
// the bucket upper bound. The exact min/max are used at the extremes, and
// for a quantile above the histogram's range.
func (h *Histogram) Percentile(p float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(p * float64(h.n)))
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.counts[b]
		if cum >= target {
			return h.upper(b)
		}
	}
	return h.max
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Latency sim.Time
	Frac    float64
}

// CDF returns the non-empty cumulative distribution points in latency
// order; the final point has Frac == 1.
func (h *Histogram) CDF() []CDFPoint {
	if h.n == 0 {
		return nil
	}
	var out []CDFPoint
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		if h.counts[b] == 0 {
			continue
		}
		cum += h.counts[b]
		out = append(out, CDFPoint{Latency: h.upper(b), Frac: float64(cum) / float64(h.n)})
	}
	return out
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	for b := range h.counts {
		h.counts[b] += other.counts[b]
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// EnergyLedger accumulates energy (nJ) by component, mirroring the paper's
// Fig. 16 decomposition: media reads/writes, fingerprint computation,
// encryption, and metadata (SRAM + comparison) overhead.
type EnergyLedger struct {
	Media       float64
	Fingerprint float64
	Crypto      float64
	SRAM        float64
	Compare     float64
}

// Total returns the summed energy in nJ.
func (e EnergyLedger) Total() float64 {
	return e.Media + e.Fingerprint + e.Crypto + e.SRAM + e.Compare
}

// Sub returns e minus other, component-wise; used to discard warm-up
// energy.
func (e EnergyLedger) Sub(other EnergyLedger) EnergyLedger {
	return EnergyLedger{
		Media:       e.Media - other.Media,
		Fingerprint: e.Fingerprint - other.Fingerprint,
		Crypto:      e.Crypto - other.Crypto,
		SRAM:        e.SRAM - other.SRAM,
		Compare:     e.Compare - other.Compare,
	}
}

// Add accumulates other into e.
func (e *EnergyLedger) Add(other EnergyLedger) {
	e.Media += other.Media
	e.Fingerprint += other.Fingerprint
	e.Crypto += other.Crypto
	e.SRAM += other.SRAM
	e.Compare += other.Compare
}

// Breakdown decomposes write-path latency into the paper's Fig. 17
// components. Every field is a total across requests; divide by the
// request count for means.
type Breakdown struct {
	FPCompute    sim.Time // fingerprint computation
	FPLookupSRAM sim.Time // fingerprint cache probes
	FPLookupNVMM sim.Time // fingerprint fetches from NVMM (full dedup only)
	ReadCompare  sim.Time // reading candidate lines for byte comparison
	Encrypt      sim.Time // non-overlapped encryption time
	Queue        sim.Time // bank queueing and write-buffer stalls
	Media        sim.Time // NVM media write time
	Metadata     sim.Time // AMT and metadata maintenance
}

// Add accumulates other into b.
func (b *Breakdown) Add(other Breakdown) {
	b.FPCompute += other.FPCompute
	b.FPLookupSRAM += other.FPLookupSRAM
	b.FPLookupNVMM += other.FPLookupNVMM
	b.ReadCompare += other.ReadCompare
	b.Encrypt += other.Encrypt
	b.Queue += other.Queue
	b.Media += other.Media
	b.Metadata += other.Metadata
}

// Total returns the summed latency.
func (b Breakdown) Total() sim.Time {
	return b.FPCompute + b.FPLookupSRAM + b.FPLookupNVMM + b.ReadCompare +
		b.Encrypt + b.Queue + b.Media + b.Metadata
}

// Components returns the breakdown as ordered (name, value) pairs for
// rendering.
func (b Breakdown) Components() []struct {
	Name  string
	Value sim.Time
} {
	return []struct {
		Name  string
		Value sim.Time
	}{
		{"fp-compute", b.FPCompute},
		{"fp-lookup-sram", b.FPLookupSRAM},
		{"fp-lookup-nvmm", b.FPLookupNVMM},
		{"read-compare", b.ReadCompare},
		{"encrypt", b.Encrypt},
		{"queue", b.Queue},
		{"media", b.Media},
		{"metadata", b.Metadata},
	}
}

// Table is a minimal plain-text table builder used by the figure harness.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the table to w as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

// GeoMean returns the geometric mean of positive values; zero or negative
// entries are skipped. It returns 0 for an empty input.
func GeoMean(values []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range values {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// MaxOf returns the maximum value (0 for empty input).
func MaxOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	max := values[0]
	for _, v := range values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-quantile (p in [0,1]) of values by
// nearest-rank on a sorted copy. It returns 0 for empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// StdDev returns the sample standard deviation (0 for fewer than two
// values).
func StdDev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	sum := 0.0
	for _, v := range values {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(values)-1))
}

// RenderCSV writes the table as RFC-4180-ish CSV (header row first).
func (t *Table) RenderCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}
