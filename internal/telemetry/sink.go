package telemetry

import (
	"strings"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/cache"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
)

// Decision is the write-path verdict a scheme reached for one request. The
// taxonomy covers every branch of the five schemes' Fig. 9/Fig. 4 write
// paths, so per-decision counters explain *why* a run behaved as it did.
type Decision uint8

// Write-path decisions.
const (
	DecNone Decision = iota
	// DecBaseline: no deduplication attempted (Baseline scheme).
	DecBaseline
	// DecDupFPCache: duplicate found via the on-chip fingerprint cache
	// (SHA1/DeWrite) or the EFIT (ESD).
	DecDupFPCache
	// DecDupFPNVMM: duplicate found via the NVMM-resident fingerprint
	// index (full-dedup schemes only).
	DecDupFPNVMM
	// DecUniqueFPMiss: fingerprint probe missed; line written as unique.
	DecUniqueFPMiss
	// DecUniqueCollision: fingerprint matched but the byte comparison
	// found different content (collision caught); written as unique.
	DecUniqueCollision
	// DecUniqueReferH: duplicate found but the EFIT entry's reference
	// count saturated at referH; rewritten as new content (ESD §III-D).
	DecUniqueReferH
	// DecPredDupDup: DeWrite T1 — predicted duplicate, was duplicate.
	DecPredDupDup
	// DecPredDupUnique: DeWrite F2 — predicted duplicate, was unique.
	DecPredDupUnique
	// DecPredUniqueUnique: DeWrite T3 — predicted unique, was unique.
	DecPredUniqueUnique
	// DecPredUniqueDup: DeWrite F4 — predicted unique, was duplicate
	// (speculative encryption wasted).
	DecPredUniqueDup
	// DecDeltaWrite: BCD — stored as a compressed delta against a base.
	DecDeltaWrite
	// DecBaseWrite: BCD — stored as a new base line.
	DecBaseWrite

	numDecisions
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecBaseline:
		return "baseline"
	case DecDupFPCache:
		return "dup-fp-cache"
	case DecDupFPNVMM:
		return "dup-fp-nvmm"
	case DecUniqueFPMiss:
		return "unique-fp-miss"
	case DecUniqueCollision:
		return "unique-collision"
	case DecUniqueReferH:
		return "unique-referh-overflow"
	case DecPredDupDup:
		return "pred-dup-dup"
	case DecPredDupUnique:
		return "pred-dup-unique"
	case DecPredUniqueUnique:
		return "pred-unique-unique"
	case DecPredUniqueDup:
		return "pred-unique-dup"
	case DecDeltaWrite:
		return "bcd-delta"
	case DecBaseWrite:
		return "bcd-base"
	default:
		return "none"
	}
}

// Options configures a Sink.
type Options struct {
	// Tracer, when non-nil, renders the sink's records into a trace file:
	// a sample of its write and read records and every rare event; nil
	// means counters/histograms only.
	Tracer *Tracer
	// SampleEvery renders one write/read record per N requests (default
	// 1 = every request). Rare events (EFIT evictions, crashes, run
	// markers) are never sampled out.
	SampleEvery int
	// Registry, when non-nil, is where this sink registers its metrics
	// instead of a fresh private registry. The sharded engine passes one
	// shared registry to every per-shard sink so a single scrape endpoint
	// exposes the whole engine.
	Registry *Registry
	// Labels, when non-empty, is a label set (e.g. `shard="3"`) merged
	// into every metric name this sink registers, distinguishing sinks
	// that share a Registry.
	Labels string
	// Flight, when non-nil, receives one record per write/read the sink
	// observes, staged like the metrics and moved into the recorder when
	// the sink publishes, so a dump shows them after the next publication
	// (the single-System wiring; the sharded engine records from its
	// workers instead, so per-shard sinks leave this nil).
	Flight *FlightRecorder
}

// labeled merges a constant label set into a metric name, preserving any
// labels the name already carries:
//
//	labeled(`esd_writes_total`, `shard="0"`)                    → esd_writes_total{shard="0"}
//	labeled(`esd_cache_hits_total{cache="amt"}`, `shard="0"`)   → esd_cache_hits_total{cache="amt",shard="0"}
func labeled(name, labels string) string {
	if labels == "" {
		return name
	}
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + labels + "}"
	}
	return name + "{" + labels + "}"
}

// Sink is the per-System telemetry hub: the layers of the request path
// call its hook methods, which stage counts, latencies and (with a flight
// recorder or a tracer) one record per request. A nil *Sink is fully
// valid and makes every hook a single-branch no-op — this is the only
// cost telemetry-off hot paths pay. What a component counts anyway — the
// device's media accesses, the crypto engine's pads, the SRAM caches'
// probes, a scheme's byte-compares — has no hook: the sink reads those
// counts where it publishes (CountFrom, CacheCountsFrom, EFITFrom).
//
// A sink has one owner at a time: the goroutine driving a System (under
// the System's owner lock), the controller's replay loop, or whichever
// goroutine owns a shard — its worker, or a caller running a request
// inline — under that shard's owner lock. The hooks stage into plain
// fields that only the owner writes, with no lock or atomic per sample;
// Publish, also the owner's, folds them into the registry, which is safe
// to scrape concurrently. Readers get a publication through the owner's
// Publisher (see Await), so a scrape shows every request completed
// before it, except while the owner is wedged mid-batch.
type Sink struct {
	// The owner's staging, packed so one write's hooks touch few cache
	// lines: the small fields first, then the latency histograms.
	n  [numCounts]uint64 // staged counters, indexed by the c* slots
	lv [numLevels]int64  // staged gauges, indexed by the l* slots
	// stages is the stage latency set, published into the registry's
	// esd_stage_latency_ns family. A shard engine shares it with the
	// shard (Stages), so each write's stages are recorded once.
	stages   *LatencySet
	flight   flightStage
	cur      TraceCtx // current request's trace context
	writeLat stats.Histogram
	readLat  stats.Histogram

	reg    *Registry
	labels string
	pub    Publisher
	ctr    [numCounts]*Counter
	done   [numCounts]uint64 // n as last published
	gauges [numLevels]*Gauge
	// counted holds the Count series' counters; pulls feeds them, and the
	// per-cache series, from the components' own counts.
	counted [numCounted]*Counter
	pulls   []pull
	entries func() int // the EFIT's live entry count (EFITFrom)
	writeT  *TimeHistogram
	readT   *TimeHistogram
}

// Staged counter slots of Sink.n.
const (
	cWrites = iota
	cReads
	cDedup
	cUnique
	cBytesSaved
	cCrashes
	cEvents
	cRunReqs
	cDecision // cDecision+d-1 counts decision d (DecNone has no slot)
	numCounts = cDecision + int(numDecisions) - 1
)

// Count names a counter series whose events a component counts anyway:
// the sink publishes that component's count (CountFrom) instead of
// counting the events again.
type Count uint8

// Counted series.
const (
	AMTHits           Count = iota // the AMT's SRAM cache hits
	AMTMisses                      // the AMT's SRAM cache misses
	AMTWritebacks                  // dirty AMT entries written back to NVMM
	DeviceReads                    // PCM media reads
	DeviceWrites                   // PCM media writes
	DeviceRowHits                  // PCM row-buffer hits
	CryptoEncrypts                 // counter-mode encryptions
	CryptoDecrypts                 // counter-mode decryptions
	CompareReads                   // a scheme's byte-compare reads
	CompareMismatches              // byte-compares that caught a collision
	efitInserts                    // EFIT inserts (EFITFrom)
	efitEvictions                  // EFIT evictions (EFITFrom)
	numCounted
)

// pull feeds a counter from a component's own count: each publication adds
// what fn gained since the last one.
type pull struct {
	ctr  *Counter
	fn   func() uint64
	done uint64
}

// Staged gauge slots of Sink.lv.
const (
	lEFITEntries = iota
	lSimNow
	lRunStalled
	numLevels
)

// publishCounts adds to each registry counter what its staged count
// gained since the last publication, so sinks sharing a counter each
// contribute their own part.
func publishCounts(n, done []uint64, ctr []*Counter) {
	for i := range n {
		if n[i] != done[i] {
			ctr[i].Add(n[i] - done[i])
			done[i] = n[i]
		}
	}
}

// NewSink builds a live sink. Without Options.Registry it owns a private
// registry; with one, its metrics (suffixed by Options.Labels) join the
// shared registry. Either way the registry shows the sink's counts only
// once the owner publishes them (Publish, Await).
func NewSink(opts Options) *Sink {
	s := &Sink{
		reg:    opts.Registry,
		flight: newFlightStage(opts.Flight, opts.Tracer, opts.SampleEvery),
		labels: opts.Labels,
	}
	if s.reg == nil {
		s.reg = NewRegistry()
	}
	ctr := func(slot int, name, help string) {
		s.ctr[slot] = s.reg.Counter(labeled(name, s.labels), help)
	}
	counted := func(c Count, name, help string) {
		s.counted[c] = s.reg.Counter(labeled(name, s.labels), help)
	}
	gauge := func(slot int, name, help string) {
		s.gauges[slot] = s.reg.Gauge(labeled(name, s.labels), help)
	}
	histo := func(name, help string) *TimeHistogram { return s.reg.Histogram(labeled(name, s.labels), help) }
	ctr(cWrites, "esd_writes_total", "dirty-eviction writes handled by the scheme")
	ctr(cReads, "esd_reads_total", "demand reads served")
	ctr(cDedup, "esd_dedup_writes_total", "writes eliminated by deduplication")
	ctr(cUnique, "esd_unique_writes_total", "lines written to NVMM as unique content")
	for d := Decision(1); d < numDecisions; d++ {
		ctr(cDecision+int(d)-1,
			`esd_write_decision_total{decision="`+d.String()+`"}`,
			"write-path decisions by verdict")
	}
	s.writeT = histo("esd_write_latency_ns", "CPU-visible write latency (simulated)")
	s.readT = histo("esd_read_latency_ns", "CPU-visible read latency (simulated)")
	s.stages = newLatencySet(NumStages, func(i int) *TimeHistogram {
		return histo(`esd_stage_latency_ns{stage="`+Stage(i).String()+`"}`, "write latency by pipeline stage")
	})

	counted(efitInserts, "esd_efit_inserts_total", "fingerprint entries installed in the EFIT")
	counted(efitEvictions, "esd_efit_evictions_total", "EFIT entries displaced by the LRCU policy")
	gauge(lEFITEntries, "esd_efit_entries", "live EFIT entries")
	counted(AMTHits, "esd_amt_cache_hits_total", "AMT SRAM cache hits")
	counted(AMTMisses, "esd_amt_cache_misses_total", "AMT SRAM cache misses (NVMM bucket fetch)")
	counted(AMTWritebacks, "esd_amt_writebacks_total", "dirty AMT entries written back to NVMM")

	counted(DeviceReads, "esd_device_reads_total", "PCM media reads")
	counted(DeviceWrites, "esd_device_writes_total", "PCM media writes (data and metadata)")
	counted(DeviceRowHits, "esd_device_row_hits_total", "row-buffer hits")

	counted(CryptoEncrypts, "esd_crypto_encrypts_total", "counter-mode line encryptions")
	counted(CryptoDecrypts, "esd_crypto_decrypts_total", "counter-mode line decryptions")

	counted(CompareReads, "esd_compare_reads_total", "byte-compare verifications of fingerprint-matched dedup candidates")
	counted(CompareMismatches, "esd_compare_mismatches_total", "byte-compares that caught an ECC fingerprint collision")
	ctr(cBytesSaved, "esd_dedup_bytes_saved_total", "bytes of media write traffic eliminated by deduplication")

	// Dedup-effectiveness gauge family: derived from the published
	// counters above at scrape time, so the hot path pays nothing for them.
	ff := func(name, help string, fn func() float64) { s.reg.FloatFunc(labeled(name, s.labels), help, fn) }
	ratio := func(num, den *Counter) func() float64 {
		return func() float64 {
			d := den.Value()
			if d == 0 {
				return 0
			}
			return float64(num.Value()) / float64(d)
		}
	}
	ff("esd_dedup_hit_rate", "fraction of scheme writes eliminated by deduplication", ratio(s.ctr[cDedup], s.ctr[cWrites]))
	ff("esd_fp_collision_rate", "fraction of byte-compares that caught an ECC fingerprint collision", ratio(s.counted[CompareMismatches], s.counted[CompareReads]))
	ff("esd_compare_verify_rate", "byte-compare verifications per scheme write", ratio(s.counted[CompareReads], s.ctr[cWrites]))

	ctr(cCrashes, "esd_crashes_total", "simulated power failures")
	ctr(cEvents, "esd_trace_events_total", "events emitted to the tracer")
	gauge(lSimNow, "esd_sim_now_ps", "simulated clock (picoseconds)")
	ctr(cRunReqs, "esd_run_requests_total", "trace records replayed (including warm-up)")
	gauge(lRunStalled, "esd_run_lag_ps", "accumulated closed-loop back-pressure lag")
	return s
}

// Publish folds everything the owner staged since the last publication
// into the registry, the flight recorder and the trace file, then
// releases readers waiting for it (see Publisher). Owner only: call it
// where the hooks are called, or through Await. Nil-safe.
func (s *Sink) Publish() {
	if s == nil {
		return
	}
	s.flight.render()
	s.n[cEvents] = s.flight.shown
	publishCounts(s.n[:], s.done[:], s.ctr[:])
	for i := range s.pulls {
		p := &s.pulls[i]
		if v := p.fn(); v != p.done {
			p.ctr.Add(v - p.done)
			p.done = v
		}
	}
	if s.entries != nil {
		s.lv[lEFITEntries] = int64(s.entries())
	}
	for i, g := range s.gauges {
		g.Set(s.lv[i])
	}
	s.writeT.store(&s.writeLat)
	s.readT.store(&s.readLat)
	s.stages.Publish()
	s.flight.flush()
	s.pub.Served()
}

// PublishIfAsked publishes when a reader waits for it: the publication
// point of an owner that runs for long stretches, such as a trace replay.
// One atomic load otherwise. Nil-safe.
func (s *Sink) PublishIfAsked() {
	if s != nil && s.pub.Asked() {
		s.Publish()
	}
}

// Await is the reader's side of Publish: it publishes under own, the
// owner lock of whoever drives this sink, when that lock is free, and
// otherwise waits until deadline for the owner's next PublishIfAsked. It
// reports whether the registry is now current. Nil-safe.
func (s *Sink) Await(own *sync.Mutex, deadline time.Time) bool {
	if s == nil {
		return false
	}
	return s.pub.Await(own, s.Publish, deadline)
}

// Stages returns the sink's stage latency set (nil-safe). A shard uses
// it as its own, so with metrics on each write's stages are recorded
// once, by the sink.
func (s *Sink) Stages() *LatencySet {
	if s == nil {
		return nil
	}
	return s.stages
}

// Registry exposes the sink's metric set for exposition (nil-safe).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// CloseTrace renders the records still staged for the trace file, then
// closes the tracer (see Tracer.Close). Owner only; nil-safe, and a no-op
// without a tracer.
func (s *Sink) CloseTrace() error {
	if s == nil {
		return nil
	}
	s.flight.render()
	return s.flight.t.Close()
}

// Flight returns the attached flight recorder, if any (nil-safe). It
// holds the sink's records as of the last publication.
func (s *Sink) Flight() *FlightRecorder {
	if s == nil {
		return nil
	}
	return s.flight.f
}

// BeginRequest installs the trace context of the request about to enter
// the scheme; the records of subsequent OnWrite/OnRead calls carry its
// trace ID. Called by the sink's owner, the layer that drives the
// scheme (System, the controller's replay loop, a shard's owner).
func (s *Sink) BeginRequest(tc TraceCtx) {
	if s == nil {
		return
	}
	s.cur = tc
}

// OnWrite records one scheme write: decision counter, latency histogram,
// per-stage attribution from the breakdown (may be nil) and its record.
func (s *Sink) OnWrite(d Decision, logical, phys uint64, dedup bool, at, done sim.Time, bd *stats.Breakdown) {
	if s == nil {
		return
	}
	s.n[cWrites]++
	if dedup {
		s.n[cDedup]++
		s.n[cBytesSaved] += 64
	} else {
		s.n[cUnique]++
	}
	if d > DecNone && d < numDecisions {
		s.n[cDecision+int(d)-1]++
	}
	s.writeLat.Record(done - at)
	s.lv[lSimNow] = int64(done)
	if bd != nil {
		st := StagesFromBreakdown(bd)
		s.stages.Record(&st)
		s.flight.write(s.cur, d, logical, phys, dedup, at, done-at, &st)
	} else {
		s.flight.write(s.cur, d, logical, phys, dedup, at, done-at, nil)
	}
}

// OnRead records one demand read.
func (s *Sink) OnRead(logical uint64, hit bool, at, done sim.Time) {
	if s == nil {
		return
	}
	s.n[cReads]++
	s.readLat.Record(done - at)
	s.lv[lSimNow] = int64(done)
	s.flight.read(s.cur, logical, hit, at, done-at)
}

// OnEFITEvict traces an LRCU eviction (fp's entry with the given
// reference count left the controller) as a rare record; the eviction
// count is the EFIT's own (EFITFrom).
func (s *Sink) OnEFITEvict(fp uint64, ref int, at sim.Time) {
	if s == nil || s.flight.t == nil {
		return
	}
	s.flight.emit(rec{kind: KindEFITEvict, phys: fp, n: uint16(ref), at: int64(at)})
}

// CountFrom makes the series c publish what fn counts: each publication
// adds what fn gained since the last one, or since this call. fn reads
// the component's own counter, which must never fall; it runs only where
// Publish does, on the owner, so it may read plain fields. Call it when
// the component is built. Nil-safe.
func (s *Sink) CountFrom(c Count, fn func() uint64) {
	if s == nil {
		return
	}
	s.pulls = append(s.pulls, pull{ctr: s.counted[c], fn: fn, done: fn()})
}

// CacheCountsFrom registers the hit, miss and eviction counters of the SRAM
// cache labeled label (e.g. "sha1-fp"), published from the cache's own
// statistics st. Nil-safe.
func (s *Sink) CacheCountsFrom(label string, st *cache.Stats) {
	if s == nil {
		return
	}
	for _, c := range []struct {
		kind string
		v    *uint64
	}{{"hits", &st.Hits}, {"misses", &st.Misses}, {"evictions", &st.Evictions}} {
		ctr := s.reg.Counter(labeled(`esd_cache_`+c.kind+`_total{cache="`+label+`"}`, s.labels), "SRAM cache "+c.kind+" by cache")
		s.pulls = append(s.pulls, pull{ctr: ctr, fn: func() uint64 { return *c.v }, done: *c.v})
	}
}

// EFITFrom publishes the EFIT series from the EFIT itself: its inserts,
// evictions and "efit" cache counters from its statistics st, and the
// live-entry gauge from entries, read at each publication, so the gauge
// also falls when a freed line's entry is purged or a crash empties the
// table. Nil-safe.
func (s *Sink) EFITFrom(st *cache.Stats, entries func() int) {
	if s == nil {
		return
	}
	s.CountFrom(efitInserts, func() uint64 { return st.Inserts })
	s.CountFrom(efitEvictions, func() uint64 { return st.Evictions })
	s.entries = entries
	s.CacheCountsFrom("efit", st)
}

// DeviceHealth is the scalar device-health sample exposed as a gauge
// family. The device layer fills it via the callback handed to
// RegisterDeviceHealth, keeping telemetry free of an nvm dependency.
type DeviceHealth struct {
	MaxWear       uint64
	P99Wear       uint64
	MeanWear      float64
	WearSkew      float64
	ReadEnergyNJ  float64
	WriteEnergyNJ float64
}

// RegisterDeviceHealth registers the device-health gauge family (wear
// max/p99/mean/skew, media energy split), each gauge computed by fn at
// scrape time. fn must be safe to call concurrently with the simulation;
// nvm's HealthSummary is. Nil-safe on both receiver and fn.
func (s *Sink) RegisterDeviceHealth(fn func() DeviceHealth) {
	if s == nil || fn == nil {
		return
	}
	ff := func(name, help string, get func(DeviceHealth) float64) {
		s.reg.FloatFunc(labeled(name, s.labels), help, func() float64 { return get(fn()) })
	}
	ff("esd_device_wear_max", "highest per-line write count",
		func(h DeviceHealth) float64 { return float64(h.MaxWear) })
	ff("esd_device_wear_p99", "approximate 99th-percentile per-line write count",
		func(h DeviceHealth) float64 { return float64(h.P99Wear) })
	ff("esd_device_wear_mean", "mean write count over lines ever written",
		func(h DeviceHealth) float64 { return h.MeanWear })
	ff("esd_device_wear_skew", "max/mean wear ratio (wear-leveling early warning; 1.0 is level)",
		func(h DeviceHealth) float64 { return h.WearSkew })
	ff("esd_device_energy_read_nj", "media energy spent on reads (nJ)",
		func(h DeviceHealth) float64 { return h.ReadEnergyNJ })
	ff("esd_device_energy_write_nj", "media energy spent on writes (nJ)",
		func(h DeviceHealth) float64 { return h.WriteEnergyNJ })
}

// HybridHealth is the hybrid DRAM/PCM tier's gauge-family sample. The
// media layer fills it via the callback handed to RegisterHybridHealth,
// keeping telemetry free of a media dependency (same pattern as
// DeviceHealth).
type HybridHealth struct {
	DRAMHits       uint64
	DRAMMisses     uint64
	Promotions     uint64
	Demotions      uint64
	Writebacks     uint64
	WALAppends     uint64
	AbsorbedWrites uint64
	CapacityLines  int64
	ResidentLines  int64
	DirtyLines     int64
}

// RegisterHybridHealth registers the hybrid-tier gauge family (DRAM
// hit/miss totals, migration counters, WAL appends, buffer occupancy),
// each gauge computed by fn at scrape time. fn must be safe to call
// concurrently with the simulation; media.Hybrid's Snapshot is. Nil-safe
// on both receiver and fn.
func (s *Sink) RegisterHybridHealth(fn func() HybridHealth) {
	if s == nil || fn == nil {
		return
	}
	ff := func(name, help string, get func(HybridHealth) float64) {
		s.reg.FloatFunc(labeled(name, s.labels), help, func() float64 { return get(fn()) })
	}
	ff("esd_hybrid_dram_hit_total", "timed data reads served from the DRAM tier",
		func(h HybridHealth) float64 { return float64(h.DRAMHits) })
	ff("esd_hybrid_dram_miss_total", "timed data reads served from PCM",
		func(h HybridHealth) float64 { return float64(h.DRAMMisses) })
	ff("esd_hybrid_promotions_total", "lines promoted into the DRAM tier",
		func(h HybridHealth) float64 { return float64(h.Promotions) })
	ff("esd_hybrid_demotions_total", "lines demoted out of the DRAM tier",
		func(h HybridHealth) float64 { return float64(h.Demotions) })
	ff("esd_hybrid_writebacks_total", "dirty demotions that cost a PCM home write",
		func(h HybridHealth) float64 { return float64(h.Writebacks) })
	ff("esd_hybrid_wal_appends_total", "write-ahead PCM persists for DRAM-bound writes",
		func(h HybridHealth) float64 { return float64(h.WALAppends) })
	ff("esd_hybrid_absorbed_writes_total", "data writes absorbed by DRAM instead of a PCM home write",
		func(h HybridHealth) float64 { return float64(h.AbsorbedWrites) })
	ff("esd_hybrid_capacity_lines", "DRAM tier capacity in lines",
		func(h HybridHealth) float64 { return float64(h.CapacityLines) })
	ff("esd_hybrid_resident_lines", "lines currently resident in DRAM",
		func(h HybridHealth) float64 { return float64(h.ResidentLines) })
	ff("esd_hybrid_dirty_lines", "DRAM residents newer than their PCM home",
		func(h HybridHealth) float64 { return float64(h.DirtyLines) })
}

// OnCrash records a simulated power failure.
func (s *Sink) OnCrash(at sim.Time) {
	if s == nil {
		return
	}
	s.n[cCrashes]++
	if s.flight.t != nil {
		s.flight.emit(rec{kind: KindCrash, at: int64(at)})
	}
}

// OnRunProgress is the controller's per-record hook (warm-up included).
func (s *Sink) OnRunProgress(lag sim.Time) {
	if s == nil {
		return
	}
	s.n[cRunReqs]++
	s.lv[lRunStalled] = int64(lag)
}

// OnRunMark traces a run lifecycle marker (KindRunStart, KindRunMeasure,
// KindRunEnd).
func (s *Sink) OnRunMark(kind Kind, at sim.Time, detail string) {
	if s == nil || s.flight.t == nil {
		return
	}
	s.flight.emit(rec{kind: kind, at: int64(at), text: &detail})
}
