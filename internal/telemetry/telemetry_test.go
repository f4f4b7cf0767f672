package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/cache"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
)

func TestNilPrimitivesAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(7)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *TimeHistogram
	h.Observe(sim.Microsecond)
	snap := h.Snapshot()
	if snap.Count() != 0 {
		t.Error("nil histogram recorded")
	}
}

// TestNilSinkHooksAreNoOps calls EVERY exported Sink method on a nil
// receiver: the schemes call the hooks unconditionally on the hot path,
// and the components register their counts whether or not telemetry is
// on, so a forgotten nil guard on any new method is a panic in every
// untelemetered run. Extend this list whenever a method is added.
func TestNilSinkHooksAreNoOps(t *testing.T) {
	var s *Sink
	bd := stats.Breakdown{Encrypt: 5}
	s.BeginRequest(TraceCtx{TraceID: 1, Span: 1})
	s.OnWrite(DecDupFPCache, 1, 2, true, 0, 10, nil)
	s.OnWrite(DecDupFPCache, 1, 2, true, 0, 10, &bd)
	s.OnRead(1, true, 0, 10)
	s.OnEFITEvict(1, 2, 0)
	s.OnCrash(0)
	s.OnRunProgress(0)
	s.OnRunMark(KindRunStart, 0, "")
	var st cache.Stats
	for c := Count(0); c < numCounted; c++ {
		s.CountFrom(c, func() uint64 { return 1 })
	}
	s.CacheCountsFrom("x", &st)
	s.EFITFrom(&st, func() int { return 1 })
	s.RegisterHybridHealth(func() HybridHealth { return HybridHealth{} })
	s.Publish()
	s.PublishIfAsked()
	if s.Await(new(sync.Mutex), time.Now()) {
		t.Error("nil sink reported a publication")
	}
	if err := s.CloseTrace(); err != nil {
		t.Errorf("nil sink CloseTrace = %v", err)
	}
	if s.Registry() != nil || s.Flight() != nil || s.Stages() != nil {
		t.Error("nil sink leaked non-nil accessors")
	}
}

// TestNilFlightAndStagesAreNoOps covers the tracing primitives the same
// way: shard workers call these without checking whether tracing is
// enabled, relying on nil receivers being no-ops.
func TestNilFlightAndStagesAreNoOps(t *testing.T) {
	var f *FlightRecorder
	st := StageTimes{StageEncrypt: 5}
	f.RecordWrite(0, TraceCtx{}, 1, 1, true, 0, 10, &st)
	f.RecordRead(0, TraceCtx{}, 1, true, 0, 10)
	if f.Cap() != 0 || f.Len() != 0 {
		t.Error("nil flight recorder has capacity")
	}
	if recs := f.Snapshot(); recs != nil {
		t.Errorf("nil flight recorder snapshot = %v", recs)
	}

	var h *LatencySet
	h.Record(&st)
	h.Publish()
	var snap [NumStages]stats.Histogram
	h.Snapshot(snap[:])
	for i := range snap {
		if snap[i].Count() != 0 {
			t.Errorf("nil latency set recorded stage %v", Stage(i))
		}
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_ops_total", "operations")
	c.Add(3)
	// Two labeled counters in one family: HELP/TYPE must appear once.
	a := r.Counter(`t_hits_total{kind="a"}`, "hits by kind")
	b := r.Counter(`t_hits_total{kind="b"}`, "hits by kind")
	a.Inc()
	b.Add(2)
	g := r.Gauge("t_depth", "queue depth")
	g.Set(-4)
	h := r.Histogram("t_lat_ns", "latency")
	h.Observe(10 * sim.Nanosecond)
	h.Observe(100 * sim.Nanosecond)
	h.Observe(100 * sim.Nanosecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP t_ops_total operations",
		"# TYPE t_ops_total counter",
		"t_ops_total 3",
		"# TYPE t_hits_total counter",
		`t_hits_total{kind="a"} 1`,
		`t_hits_total{kind="b"} 2`,
		"# TYPE t_depth gauge",
		"t_depth -4",
		"# TYPE t_lat_ns histogram",
		`t_lat_ns_bucket{le="+Inf"} 3`,
		"t_lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE t_hits_total counter") != 1 {
		t.Error("family header repeated for labeled series")
	}
	// Histogram buckets must be cumulative and non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "t_lat_ns_bucket") || strings.Contains(line, "+Inf") {
			continue
		}
		var le float64
		var n int64
		if _, err := fmtSscanf(line, &le, &n); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < last {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		last = n
	}
}

// fmtSscanf parses `name_bucket{le="X"} N`.
func fmtSscanf(line string, le *float64, n *int64) (int, error) {
	i := strings.Index(line, `le="`)
	j := strings.Index(line[i+4:], `"`)
	if i < 0 || j < 0 {
		return 0, errors.New("no le label")
	}
	if _, err := jsonNumber(line[i+4:i+4+j], le); err != nil {
		return 0, err
	}
	k := strings.LastIndexByte(line, ' ')
	return 2, json.Unmarshal([]byte(line[k+1:]), n)
}

func jsonNumber(s string, f *float64) (int, error) {
	return 1, json.Unmarshal([]byte(s), f)
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("j_ops_total", "").Add(9)
	r.Gauge("j_depth", "").Set(2)
	r.Histogram("j_lat_ns", "").Observe(50 * sim.Nanosecond)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if m["j_ops_total"].(float64) != 9 {
		t.Errorf("j_ops_total = %v", m["j_ops_total"])
	}
	if _, ok := m["memstats"]; !ok {
		t.Error("memstats missing")
	}
	hist, ok := m["j_lat_ns"].(map[string]any)
	if !ok || hist["count"].(float64) != 1 {
		t.Errorf("histogram sub-object wrong: %v", m["j_lat_ns"])
	}
}

func TestTracerJSONLRoundTrip(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, FormatJSONL)
	var w rec
	st := StageTimes{StageEFIT: 2 * sim.Nanosecond, StageAMT: 3 * sim.Nanosecond}
	w.setWrite(0, TraceCtx{TraceID: 4}, DecDupFPCache, 7, 9, true, 100*sim.Nanosecond, 5500*sim.Picosecond, &st)
	end := "esd"
	tr.render(&w)
	tr.render(&rec{kind: KindRunEnd, at: int64(200 * sim.Nanosecond), text: &end})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	want := Record{Seq: 1, Layer: "engine", Clock: "sim", Kind: "write", Trace: 4, Decision: "dup-fp-cache",
		Addr: 7, Phys: 9, Dedup: true, AtNs: 100, LatNs: 5.5, StagesNs: &StageNs{EFIT: 2, AMT: 3}}
	if !reflect.DeepEqual(recs[0], want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", recs[0], want)
	}
	if want := (Record{Seq: 2, Layer: "engine", Clock: "sim", Kind: "run-end", Detail: "esd", AtNs: 200}); !reflect.DeepEqual(recs[1], want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", recs[1], want)
	}
	// Close is idempotent.
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
}

// TestTracerWriteRecordBytes pins a trace line byte for byte for a write
// whose eight stages are all nonzero: stage names in sorted order, and
// fractional, large and picosecond-sized values as encoding/json writes
// them.
func TestTracerWriteRecordBytes(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, FormatJSONL)
	st := StageTimes{
		StageQueue:       sim.Picosecond,
		StageFingerprint: 321 * sim.Nanosecond,
		StageEFIT:        2 * sim.Nanosecond,
		StageFPNVMM:      150 * sim.Nanosecond,
		StageNVMVerify:   75250 * sim.Picosecond,
		StageEncrypt:     40 * sim.Nanosecond,
		StageMedia:       1234567 * sim.Nanosecond,
		StageAMT:         3 * sim.Nanosecond,
	}
	var w rec
	w.setWrite(3, TraceCtx{TraceID: 4}, DecUniqueFPMiss, 7, 9, false, 100*sim.Nanosecond, 1234958251*sim.Picosecond, &st)
	tr.render(&w)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	const want = `{"seq":1,"layer":"engine","clock":"sim","kind":"write","trace":4,"shard":3,"addr":7,"phys":9,` +
		`"decision":"unique-fp-miss","at_ns":100,"lat_ns":1234958.251,"stages_ns":{"amt":3,"efit":2,"encrypt":40,` +
		`"fingerprint":321,"fp-nvmm":150,"media":1234567,"nvm-verify":75.25,"queue":0.001}}` + "\n"
	if sb.String() != want {
		t.Errorf("trace line:\n got %s\nwant %s", sb.String(), want)
	}
}

func TestTracerChromeFormat(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, FormatChrome)
	var w rec
	w.setWrite(0, TraceCtx{}, DecUniqueFPMiss, 1, 1, false, 2*sim.Microsecond, sim.Microsecond, nil)
	tr.render(&w)
	tr.render(&rec{kind: KindEFITEvict, n: 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, sb.String())
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Ph != "X" || evs[0].Ts != 2 || evs[0].Dur != 1 {
		t.Errorf("complete event wrong: %+v", evs[0])
	}
	if evs[0].Name != "write" || evs[0].Args["decision"] != "unique-fp-miss" {
		t.Errorf("names/args wrong: %+v", evs[0])
	}
	if evs[1].Ph != "i" || evs[1].Name != "efit-evict" || evs[1].Args["detail"] != "ref=1" {
		t.Errorf("instant event wrong: %+v", evs[1])
	}
}

func TestTracerChromeEmptyIsValidJSON(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, FormatChrome)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("empty chrome trace invalid: %v\n%q", err, sb.String())
	}
	if len(evs) != 0 {
		t.Errorf("got %d events from empty trace", len(evs))
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 1<<16 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestTracerStickyError(t *testing.T) {
	tr := NewTracer(&failWriter{}, FormatJSONL)
	for i := 0; i < 5000; i++ {
		tr.render(&rec{kind: KindWrite, at: int64(i)})
	}
	if err := tr.Close(); err == nil {
		t.Fatal("write error not surfaced by Close")
	}
}

func TestParseFormat(t *testing.T) {
	if f, err := ParseFormat(""); err != nil || f != FormatJSONL {
		t.Errorf("ParseFormat(\"\") = %v, %v", f, err)
	}
	if f, err := ParseFormat("chrome"); err != nil || f != FormatChrome {
		t.Errorf("ParseFormat(chrome) = %v, %v", f, err)
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("bogus format accepted")
	}
}

func TestSinkCountersAndSampling(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, FormatJSONL)
	s := NewSink(Options{Tracer: tr, SampleEvery: 3})
	for i := 0; i < 9; i++ {
		s.OnWrite(DecUniqueFPMiss, uint64(i), uint64(i), false, 0, sim.Time(100*(i+1)), nil)
	}
	s.OnWrite(DecDupFPCache, 9, 0, true, 0, 50, nil)
	s.OnRead(1, true, 0, 200)
	s.OnEFITEvict(42, 1, 500) // rare: always traced regardless of sampling
	s.OnCrash(1000)
	if err := s.CloseTrace(); err != nil {
		t.Fatal(err)
	}
	s.Publish() // the hooks stage; the owner publishes before a read

	get := func(name string) uint64 { return s.Registry().Counter(name, "").Value() }
	if got := get("esd_writes_total"); got != 10 {
		t.Errorf("writes = %d", got)
	}
	if got := get("esd_dedup_writes_total"); got != 1 {
		t.Errorf("dedup = %d", got)
	}
	if got := get("esd_unique_writes_total"); got != 9 {
		t.Errorf("unique = %d", got)
	}
	if got := get(`esd_write_decision_total{decision="unique-fp-miss"}`); got != 9 {
		t.Errorf("decision counter = %d", got)
	}
	recs, err := ReadRecords(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var writes, rare int
	for _, r := range recs {
		switch r.Kind {
		case "write", "read":
			writes++
		case "efit-evict", "crash":
			rare++
		}
	}
	// 11 sampled-class records at 1-in-3 → 3; both rare events always pass.
	if writes != 3 {
		t.Errorf("sampled records = %d, want 3", writes)
	}
	if rare != 2 {
		t.Errorf("rare records = %d, want 2", rare)
	}
	if got := get("esd_trace_events_total"); got != 5 {
		t.Errorf("trace events = %d, want 5", got)
	}
}

func TestSinkHistogramExposition(t *testing.T) {
	s := NewSink(Options{})
	s.OnWrite(DecBaseline, 0, 0, false, 0, 150*sim.Nanosecond, nil)
	s.Publish()
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "esd_write_latency_ns_count 1") {
		t.Errorf("write latency histogram not exposed:\n%s", out)
	}
}

// TestCacheProbeLabels checks that a cache's probe counts — hits, misses
// and evictions, read from its own statistics — are published under the
// cache's label, and only once the owner publishes.
func TestCacheProbeLabels(t *testing.T) {
	s := NewSink(Options{})
	st := cache.Stats{Hits: 5} // counted before registration: not published
	s.CacheCountsFrom("sha1-fp", &st)
	st.Hits += 2
	st.Misses++
	st.Evictions++
	r := s.Registry()
	hits := r.Counter(`esd_cache_hits_total{cache="sha1-fp"}`, "")
	if got := hits.Value(); got != 0 {
		t.Errorf("hits = %d before a publication", got)
	}
	s.Publish()
	if got := hits.Value(); got != 2 {
		t.Errorf("hits = %d", got)
	}
	if got := r.Counter(`esd_cache_misses_total{cache="sha1-fp"}`, "").Value(); got != 1 {
		t.Errorf("misses = %d", got)
	}
	if got := r.Counter(`esd_cache_evictions_total{cache="sha1-fp"}`, "").Value(); got != 1 {
		t.Errorf("evicts = %d", got)
	}
}

// TestCountsFromComponents covers the series published from components'
// own counts: two sinks sharing a registry add up, each publication adds
// only what a source gained since the last, and the EFIT gauge follows the
// table down as well as up.
func TestCountsFromComponents(t *testing.T) {
	reg := NewRegistry()
	var reads [2]uint64
	var efit [2]cache.Stats
	var entries [2]int
	var sinks [2]*Sink
	for i := range sinks {
		sinks[i] = NewSink(Options{Registry: reg, Labels: `shard="` + strconv.Itoa(i) + `"`})
		sinks[i].CountFrom(DeviceReads, func() uint64 { return reads[i] })
		sinks[i].EFITFrom(&efit[i], func() int { return entries[i] })
	}
	value := func(name string) uint64 { return reg.Counter(name, "").Value() }
	level := func(name string) int64 { return reg.Gauge(name, "").Value() }
	reads[0], reads[1] = 3, 4
	efit[0].Inserts, efit[0].Evictions, entries[0] = 5, 1, 4
	sinks[0].Publish()
	sinks[0].Publish() // nothing gained: nothing added
	sinks[1].Publish()
	if a, b := value(`esd_device_reads_total{shard="0"}`), value(`esd_device_reads_total{shard="1"}`); a != 3 || b != 4 {
		t.Errorf("device reads = %d, %d; want 3, 4", a, b)
	}
	if got := value(`esd_efit_inserts_total{shard="0"}`); got != 5 {
		t.Errorf("efit inserts = %d, want 5", got)
	}
	if got := value(`esd_efit_evictions_total{shard="0"}`); got != 1 {
		t.Errorf("efit evictions = %d, want 1", got)
	}
	if got := value(`esd_cache_evictions_total{cache="efit",shard="0"}`); got != 1 {
		t.Errorf("efit cache evictions = %d, want 1", got)
	}
	if got := level(`esd_efit_entries{shard="0"}`); got != 4 {
		t.Errorf("efit entries = %d, want 4", got)
	}
	reads[0] += 10
	entries[0] = 0 // a crash empties the table
	sinks[0].Publish()
	if got := value(`esd_device_reads_total{shard="0"}`); got != 13 {
		t.Errorf("device reads = %d after a second publication, want 13", got)
	}
	if got := level(`esd_efit_entries{shard="0"}`); got != 0 {
		t.Errorf("efit entries = %d after the table emptied, want 0", got)
	}
}

func TestServerEndpoints(t *testing.T) {
	s := NewSink(Options{})
	s.OnWrite(DecBaseline, 1, 1, false, 0, 100, nil)
	s.Publish()
	srv, err := NewServer(s.Registry(), ServerOptions{Addr: "127.0.0.1:0", Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("/metrics status=%d content-type=%q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "esd_writes_total 1") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	resp, err = http.Get(srv.URL() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Errorf("/debug/vars invalid JSON: %v", err)
	}

	resp, err = http.Get(srv.URL() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline status=%d with pprof on", resp.StatusCode)
	}
}

func TestServerPprofOffByDefault(t *testing.T) {
	srv, err := NewServer(NewRegistry(), ServerOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pprof/ status=%d, want 404 when pprof is off", resp.StatusCode)
	}
}

func TestDecisionStrings(t *testing.T) {
	seen := map[string]bool{}
	for d := Decision(1); d < numDecisions; d++ {
		s := d.String()
		if s == "none" || s == "" {
			t.Errorf("decision %d has no name", d)
		}
		if seen[s] {
			t.Errorf("duplicate decision name %q", s)
		}
		seen[s] = true
	}
}

// TestStagedHistogramsMatchPerSample holds the staged recording — runs of
// equal samples recorded at once, published on demand — to the histograms
// that recording every sample builds, for a stream with long runs, short
// runs and zero stages.
func TestStagedHistogramsMatchPerSample(t *testing.T) {
	staged := NewLatencySet(NumStages)
	var want [NumStages]stats.Histogram
	s := NewSink(Options{})
	var wantWrite stats.Histogram
	for i := 0; i < 5000; i++ {
		bd := stats.Breakdown{
			FPLookupSRAM: 2 * sim.Nanosecond,                       // constant
			ReadCompare:  sim.Time(i%7) * 3 * sim.Nanosecond,       // short runs, zeros
			Media:        sim.Time(150+(i/100)%3) * sim.Nanosecond, // long runs
			Queue:        sim.Time((i*7919)%13) * sim.Nanosecond,   // no runs
		}
		st := StagesFromBreakdown(&bd)
		staged.Record(&st)
		for j, d := range st {
			if d > 0 {
				want[j].Record(d)
			}
		}
		lat := bd.Total()
		s.OnWrite(DecUniqueFPMiss, 0, 0, false, 0, lat, &bd)
		wantWrite.Record(lat)
		if i%1000 == 999 {
			staged.Publish() // publication mid-run must not perturb the result
			s.Publish()
		}
	}
	staged.Publish()
	s.Publish()
	var got [NumStages]stats.Histogram
	staged.Snapshot(got[:])
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("stage %v: staged histogram differs from per-sample recording", Stage(j))
		}
	}
	if got := s.Registry().Histogram("esd_write_latency_ns", "").Snapshot(); got != wantWrite {
		t.Errorf("write latency: staged histogram differs from per-sample recording")
	}
	if got := s.Registry().Histogram(`esd_stage_latency_ns{stage="media"}`, "").Snapshot(); got != want[StageMedia] {
		t.Errorf("stage family: staged histogram differs from per-sample recording")
	}
}

// TestSinkFlightStagedMatchesDirect holds a sink's staged flight records
// to a recorder fed each record directly: after every publication the
// two dumps must be identical, sequence numbers included — also when
// more records than the ring holds were staged between publications.
func TestSinkFlightStagedMatchesDirect(t *testing.T) {
	staged, direct := NewFlightRecorder(16), NewFlightRecorder(16)
	s := NewSink(Options{Flight: staged})
	publishAfter := map[int]bool{0: true, 3: true, 4: true, 20: true, 21: true, 60: true, 99: true}
	for i := 0; i < 100; i++ {
		tc := TraceCtx{TraceID: uint64(i + 1)}
		s.BeginRequest(tc)
		at, lat := sim.Time(i)*sim.Nanosecond, sim.Time(100+i%7)*sim.Nanosecond
		if i%3 == 2 {
			s.OnRead(uint64(i), i%2 == 0, at, at+lat)
			direct.RecordRead(0, tc, uint64(i), i%2 == 0, at, lat)
		} else {
			bd := stats.Breakdown{Encrypt: 40 * sim.Nanosecond, Media: lat - 40*sim.Nanosecond}
			st := StagesFromBreakdown(&bd)
			s.OnWrite(DecUniqueFPMiss, uint64(i), uint64(1000+i), i%4 == 0, at, at+lat, &bd)
			if r := direct.ring.claim(); r != nil { // RecordWrite with the sink's decision
				r.rec.setWrite(0, tc, DecUniqueFPMiss, uint64(i), uint64(1000+i), i%4 == 0, at, lat, &st)
				r.mu.Unlock()
			}
		}
		if !publishAfter[i] {
			continue
		}
		s.Publish()
		got, want := staged.Snapshot(), direct.Snapshot()
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("after record %d: staged dump differs from direct recording\n got %s\nwant %s", i, gj, wj)
		}
		if staged.Len() != direct.Len() {
			t.Fatalf("after record %d: Len %d, want %d", i, staged.Len(), direct.Len())
		}
	}
}
