// Package telemetry is the simulator's observability substrate: a
// metrics registry (counters, gauges and log-bucketed latency histograms)
// with Prometheus text-format and expvar-style JSON exposition; one record
// type for what each layer did per request — shard and router flight
// recorders, and the trace file a System renders from its records (JSONL
// and Chrome trace_event export); one latency set for the write stages
// and the router hops; and an opt-in HTTP server that serves the metrics
// plus net/http/pprof.
//
// Hot paths do not write the registry. The per-layer hooks reach a
// nil-safe *Sink (see sink.go), so with telemetry off an instrumentation
// point costs one predictable branch; with it on, the Sink stages each
// sample in plain memory that only its owner writes — the goroutine
// driving a System, or a shard's owner — with no lock or atomic per
// sample. The registry holds the published copy: a render first runs the
// registry's publish hook, which folds the staged values in under the
// owner's lock (see Publisher), so what a scrape reads is safe for
// concurrent use: counters and gauges are atomics, and a histogram takes
// its mutex only to publish or snapshot.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
)

// Counter is a monotonically increasing metric. A nil *Counter discards
// increments, so call sites never need their own guard.
type Counter struct {
	name string
	help string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a settable instantaneous value. A nil *Gauge discards updates.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// TimeHistogram is a concurrency-safe latency histogram reusing the
// log-bucketed stats.Histogram underneath. A staging owner replaces its
// contents at each publication (store); writers that share one histogram,
// such as the router's hop spans, record with Observe. Either way the
// scrape goroutine snapshots under the same mutex.
type TimeHistogram struct {
	name string
	help string
	mu   sync.Mutex
	h    stats.Histogram
}

// Observe records one latency sample under the mutex: the path for
// histograms with several concurrent writers.
func (t *TimeHistogram) Observe(d sim.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.h.Record(d)
	t.mu.Unlock()
}

// store publishes an owner's staged histogram, which only grows, so an
// unchanged count means there is nothing to copy.
func (t *TimeHistogram) store(h *stats.Histogram) {
	t.mu.Lock()
	if t.h.Count() != h.Count() {
		t.h = *h
	}
	t.mu.Unlock()
}

// Snapshot returns a copy of the underlying histogram.
func (t *TimeHistogram) Snapshot() stats.Histogram {
	if t == nil {
		return stats.Histogram{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h
}

// FloatFunc is a float gauge whose value is computed by a callback at
// exposition time. It costs the instrumented code nothing between scrapes,
// is always fresh, and is race-safe as long as the callback reads from
// concurrency-safe sources (atomics, or state behind its own lock). Used
// for derived rates (dedup hit rate) and device-health values (wear skew,
// energy split) that would otherwise need hot-path bookkeeping.
type FloatFunc struct {
	name string
	help string
	fn   func() float64
}

// Value invokes the callback (0 for nil).
func (f *FloatFunc) Value() float64 {
	if f == nil || f.fn == nil {
		return 0
	}
	return f.fn()
}

// Name returns the registered metric name.
func (f *FloatFunc) Name() string { return f.name }

// Registry holds the metric set of one telemetry instance. Metrics are
// registered once (at Sink construction) and then only read or published,
// so the registry lock is uncontended in steady state.
type Registry struct {
	mu      sync.RWMutex
	publish func()   // brings staged values in before a render (SetPublish)
	order   []string // registration order of metric names
	ctrs    map[string]*Counter
	gauges  map[string]*Gauge
	hists   map[string]*TimeHistogram
	funcs   map[string]*FloatFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*TimeHistogram),
		funcs:  make(map[string]*FloatFunc),
	}
}

// SetPublish installs the hook every render (WritePrometheus, WriteJSON)
// runs first: the owner of the sinks feeding this registry folds their
// staged values in, so a render shows them. Set it once, at construction.
func (r *Registry) SetPublish(fn func()) {
	r.mu.Lock()
	r.publish = fn
	r.mu.Unlock()
}

// publishStaged runs the publish hook, if any, outside the registry lock.
func (r *Registry) publishStaged() {
	r.mu.RLock()
	fn := r.publish
	r.mu.RUnlock()
	if fn != nil {
		fn()
	}
}

// baseName strips a {label="value"} suffix: families share HELP/TYPE lines.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter returns the counter registered under name (which may carry a
// {label="value"} suffix), creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.ctrs[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.ctrs[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the latency histogram registered under name, creating
// it on first use. Exposed bucket bounds are in nanoseconds.
func (r *Registry) Histogram(name, help string) *TimeHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &TimeHistogram{name: name, help: help}
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// FloatFunc registers a callback-backed float gauge under name. Re-
// registering an existing name swaps in the new callback (registration is
// setup-time only; the latest wiring wins).
func (r *Registry) FloatFunc(name, help string, fn func() float64) *FloatFunc {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.funcs[name]; ok {
		f.fn = fn
		return f
	}
	f := &FloatFunc{name: name, help: help, fn: fn}
	r.funcs[name] = f
	r.order = append(r.order, name)
	return f
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, counters with a
// _total-style value line, histograms as cumulative le-bucketed series
// with _sum and _count. Latency buckets are exposed in nanoseconds.
//
// Series are emitted grouped by family in first-registration order, even
// when sinks sharing the registry registered them interleaved (the
// sharded engine registers one metric set per shard): the format requires
// all samples of a family to be contiguous.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.publishStaged()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var famOrder []string
	famSeries := make(map[string][]string)
	for _, name := range r.order {
		fam := baseName(name)
		if _, seen := famSeries[fam]; !seen {
			famOrder = append(famOrder, fam)
		}
		famSeries[fam] = append(famSeries[fam], name)
	}
	for _, fam := range famOrder {
		headed := false
		for _, name := range famSeries[fam] {
			if c, ok := r.ctrs[name]; ok {
				if !headed {
					headed = true
					if err := writeHeader(w, fam, c.help, "counter"); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", name, c.Value()); err != nil {
					return err
				}
				continue
			}
			if g, ok := r.gauges[name]; ok {
				if !headed {
					headed = true
					if err := writeHeader(w, fam, g.help, "gauge"); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", name, g.Value()); err != nil {
					return err
				}
				continue
			}
			if th, ok := r.hists[name]; ok {
				if !headed {
					headed = true
					if err := writeHeader(w, fam, th.help, "histogram"); err != nil {
						return err
					}
				}
				if err := writePromHistogram(w, name, th); err != nil {
					return err
				}
				continue
			}
			if f, ok := r.funcs[name]; ok {
				if !headed {
					headed = true
					if err := writeHeader(w, fam, f.help, "gauge"); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s %g\n", name, f.Value()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeHeader(w io.Writer, fam, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ)
	return err
}

func writePromHistogram(w io.Writer, name string, th *TimeHistogram) error {
	// A labeled histogram name ("esd_write_latency_ns{shard=\"0\"}") must
	// fold its labels into each sample's label block next to "le".
	fam, inner := baseName(name), ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		inner = name[i+1:len(name)-1] + ","
	}
	h := th.Snapshot()
	var cum uint64
	var err error
	// Samples above the histogram's range appear only in the +Inf bucket.
	h.EachBucket(func(upper sim.Time, count uint64) bool {
		cum += count
		_, err = fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", fam, inner, upper.Nanoseconds(), cum)
		return err == nil
	})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, inner, h.Count()); err != nil {
		return err
	}
	suffix := ""
	if inner != "" {
		suffix = "{" + strings.TrimSuffix(inner, ",") + "}"
	}
	// The internal sum is in picoseconds; expose nanoseconds to match the
	// bucket bounds.
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", fam, suffix, h.Sum()/float64(sim.Nanosecond)); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s_count%s %d\n", fam, suffix, h.Count())
	return err
}

// WriteJSON renders the metrics as one flat JSON object in the spirit of
// expvar's /debug/vars: metric name -> value, histograms expanded into
// count/mean/p50/p99/max sub-keys, plus runtime memory stats. It is served
// at /debug/vars on the telemetry server without touching the process-wide
// expvar registry (which would collide across Systems).
func (r *Registry) WriteJSON(w io.Writer) error {
	r.publishStaged()
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	r.mu.RUnlock()
	sort.Strings(names)

	var sb strings.Builder
	sb.WriteString("{\n")
	first := true
	emit := func(key string, format string, args ...interface{}) {
		if !first {
			sb.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(&sb, "%q: ", key)
		fmt.Fprintf(&sb, format, args...)
	}
	r.mu.RLock()
	for _, name := range names {
		switch {
		case r.ctrs[name] != nil:
			emit(name, "%d", r.ctrs[name].Value())
		case r.gauges[name] != nil:
			emit(name, "%d", r.gauges[name].Value())
		case r.hists[name] != nil:
			h := r.hists[name].Snapshot()
			emit(name, `{"count": %d, "mean_ns": %g, "p50_ns": %g, "p99_ns": %g, "max_ns": %g}`,
				h.Count(), h.Mean().Nanoseconds(), h.Percentile(0.5).Nanoseconds(),
				h.Percentile(0.99).Nanoseconds(), h.Max().Nanoseconds())
		case r.funcs[name] != nil:
			v := r.funcs[name].Value()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // keep the JSON valid whatever a callback returns
			}
			emit(name, "%g", v)
		}
	}
	r.mu.RUnlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	emit("memstats", `{"alloc": %d, "total_alloc": %d, "sys": %d, "num_gc": %d}`,
		ms.Alloc, ms.TotalAlloc, ms.Sys, ms.NumGC)
	sb.WriteString("\n}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
