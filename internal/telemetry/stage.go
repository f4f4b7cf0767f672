package telemetry

import (
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
)

// Stage identifies one stage of the write pipeline for per-request latency
// attribution. The taxonomy is the serving-side view of stats.Breakdown
// (Fig. 17): every simulated picosecond of a write's latency lands in
// exactly one stage, so the per-stage histograms sum to the write-latency
// histogram.
type Stage uint8

// Write-pipeline stages.
const (
	// StageQueue is bank queueing and write-buffer stalls.
	StageQueue Stage = iota
	// StageFingerprint is fingerprint computation (free for ESD's ECC
	// fingerprint, a SHA-1 latency for the hash schemes).
	StageFingerprint
	// StageEFIT is the on-chip fingerprint table probe (the EFIT for ESD,
	// the fingerprint cache for the hash schemes).
	StageEFIT
	// StageFPNVMM is a fingerprint fetch from the NVMM-resident index
	// (full-dedup schemes only).
	StageFPNVMM
	// StageNVMVerify is the NVM read-and-compare verification of a
	// fingerprint match (§III-C).
	StageNVMVerify
	// StageEncrypt is non-overlapped counter-mode encryption time.
	StageEncrypt
	// StageMedia is the NVM media write itself.
	StageMedia
	// StageAMT is AMT lookup/update and other metadata maintenance.
	StageAMT

	// NumStages is the number of pipeline stages.
	NumStages = int(StageAMT) + 1
)

// String implements fmt.Stringer; the names double as metric label values.
func (st Stage) String() string {
	switch st {
	case StageQueue:
		return "queue"
	case StageFingerprint:
		return "fingerprint"
	case StageEFIT:
		return "efit"
	case StageFPNVMM:
		return "fp-nvmm"
	case StageNVMVerify:
		return "nvm-verify"
	case StageEncrypt:
		return "encrypt"
	case StageMedia:
		return "media"
	case StageAMT:
		return "amt"
	default:
		return "unknown"
	}
}

// StageTimes is one request's per-stage latency vector.
type StageTimes [NumStages]sim.Time

// StagesFromBreakdown maps a scheme write's latency breakdown onto the
// stage vector. It is allocation-free (value return).
func StagesFromBreakdown(bd *stats.Breakdown) StageTimes {
	return StageTimes{
		StageQueue:       bd.Queue,
		StageFingerprint: bd.FPCompute,
		StageEFIT:        bd.FPLookupSRAM,
		StageFPNVMM:      bd.FPLookupNVMM,
		StageNVMVerify:   bd.ReadCompare,
		StageEncrypt:     bd.Encrypt,
		StageMedia:       bd.Media,
		StageAMT:         bd.Metadata,
	}
}

// LatencySet is one latency histogram per span kind of a layer: the
// write-pipeline stages of an engine (NumStages of them) or the hops of a
// router (NumHops). A set is filled in one of two ways, never both. An
// owner — a shard, or a System's sink — stages each request's stage
// vector in plain memory (Record) and folds it into the published
// histograms when it publishes (Publish); writers that share a set, such
// as the router's, record each sample straight into its published
// histogram (Observe). Snapshot reads the published histograms from any
// goroutine. A sink's set publishes into the registry's
// esd_stage_latency_ns series. On a nil set every method is a no-op.
type LatencySet struct {
	n int // span kinds in use
	// run and own are the owner's: own holds every sample but each
	// kind's pending run.
	run [maxSpanKinds]sampleRun
	own [maxSpanKinds]stats.Histogram
	pub [maxSpanKinds]*TimeHistogram
}

// maxSpanKinds is the most span kinds a layer has.
const maxSpanKinds = max(NumStages, NumHops)

// NewLatencySet builds a set of n (at most NumHops) histograms of its own.
func NewLatencySet(n int) *LatencySet {
	return newLatencySet(n, func(int) *TimeHistogram { return new(TimeHistogram) })
}

// newLatencySet builds a set of n histograms that publishes span kind i
// into pub(i).
func newLatencySet(n int, pub func(i int) *TimeHistogram) *LatencySet {
	l := &LatencySet{n: n}
	for i := range n {
		l.pub[i] = pub(i)
	}
	return l
}

// sampleRun is an owner-side run of equal latency samples, held back as a
// value and a count and recorded into its histogram at once when the
// value changes or when settled. Most stages take the same latency write
// after write (an SRAM probe, an AES pass, a media write): on the bench
// workloads the efit, encrypt, media and amt samples extend a run more
// than 99.9% of the time and nvm-verify 38-92%, so a sample usually costs
// a compare and an increment on one small array instead of two cache
// lines of a 1.8 KB histogram. A histogram does not depend on the order
// of its samples, so the settled histogram is the one per-sample
// recording builds.
type sampleRun struct {
	d sim.Time
	n uint64
}

// add records sample d, moving the run it ends into h.
func (r *sampleRun) add(d sim.Time, h *stats.Histogram) {
	if d != r.d {
		h.RecordN(r.d, r.n)
		r.d, r.n = d, 0
	}
	r.n++
}

// settle moves the pending run into h.
func (r *sampleRun) settle(h *stats.Histogram) {
	h.RecordN(r.d, r.n)
	r.n = 0
}

// Record stages every non-zero stage of one request (owner only; a stage
// set). Zero stages are skipped: a scheme that never touches the NVMM
// fingerprint index should show an empty fp-nvmm histogram, not a spike
// at zero.
func (l *LatencySet) Record(st *StageTimes) {
	if l == nil {
		return
	}
	for i, d := range st {
		if d > 0 {
			l.run[i].add(d, &l.own[i])
		}
	}
}

// Publish folds the owner's staged samples into the published histograms
// (owner only).
func (l *LatencySet) Publish() {
	if l == nil {
		return
	}
	for i, p := range l.pub[:l.n] {
		l.run[i].settle(&l.own[i])
		p.store(&l.own[i])
	}
}

// Observe records one sample of span kind i straight into its published
// histogram: the path for writers that share the set. Out-of-range kinds
// are dropped. Allocation-free.
func (l *LatencySet) Observe(i int, d sim.Time) {
	if l == nil || i < 0 || i >= l.n {
		return
	}
	l.pub[i].Observe(d)
}

// Snapshot merges the published histograms into out, one per span kind.
func (l *LatencySet) Snapshot(out []stats.Histogram) {
	if l == nil {
		return
	}
	for i := range out {
		h := l.pub[i].Snapshot()
		out[i].Merge(&h)
	}
}

// LatencySummary is one span kind's latency distribution, as /statusz
// serves it for a node's stages and a router's hops. Nanoseconds are on
// the layer's clock: simulated for stages, wall for hops.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
}

// Summarize summarizes every histogram with samples, keyed by the name of
// its span kind K (Stage or Hop): hists[i] is kind K(i).
func Summarize[K interface {
	~uint8
	String() string
}](hists []stats.Histogram) map[string]LatencySummary {
	out := make(map[string]LatencySummary, len(hists))
	for i := range hists {
		h := &hists[i]
		if h.Count() == 0 {
			continue
		}
		out[K(i).String()] = LatencySummary{
			Count:  h.Count(),
			MeanNs: h.Mean().Nanoseconds(),
			P50Ns:  h.Percentile(0.5).Nanoseconds(),
			P99Ns:  h.Percentile(0.99).Nanoseconds(),
		}
	}
	return out
}

// TraceCtx is the request-scoped trace context threaded from the serving
// front end (internal/server assigns the trace ID as the request enters,
// HTTP or TCP) through the shard into the scheme's telemetry hooks,
// so the records produced deep in the write path can be joined back to
// the network request that caused them.
//
// It is a small value (no pointers, no allocation) carried by value through
// the queues. A zero TraceCtx means "untraced" — internal traffic such as
// trace replay or flushes.
type TraceCtx struct {
	// TraceID is the request's identity, unique per engine (monotonic).
	TraceID uint64
	// Span and Parent identify a span within the trace. The serving front
	// end opens span 1 with parent 0; a layer that fans out (e.g. a future
	// cross-shard operation) would allocate child spans.
	Span   uint32
	Parent uint32
	// StartNs is the wall-clock UnixNano at which the front end accepted
	// the request (0 for internally generated traffic). The simulated
	// clock lives in the events themselves; StartNs anchors them to wall
	// time for slow-request logs.
	StartNs int64
	// Deadline is the wall-clock UnixNano by which the caller stops
	// waiting for the request (0: no deadline). The shard engine arms a
	// timer for it only if the request queues behind a busy shard; a run
	// on an idle shard never waits, so it never reads it.
	Deadline int64
}
