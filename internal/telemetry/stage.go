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

// StageHistograms is a per-stage latency histogram set, staged like the
// Sink: its owner records with Observe into plain memory, Publish copies
// that into the published set, and Snapshot reads the published set from
// any goroutine. The zero value is ready to use.
type StageHistograms struct {
	// run and own are the owner's: own holds every sample but each
	// stage's pending run.
	run [NumStages]sampleRun
	own [NumStages]stats.Histogram
	pub [NumStages]TimeHistogram
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

// Observe records every non-zero stage of one request (owner only). Zero
// stages are skipped: a scheme that never touches the NVMM fingerprint
// index should show an empty fp-nvmm histogram, not a spike at zero.
func (h *StageHistograms) Observe(st *StageTimes) {
	if h == nil {
		return
	}
	for i, d := range st {
		if d > 0 {
			h.run[i].add(d, &h.own[i])
		}
	}
}

// settle completes stage i's owner-side histogram and returns it (owner
// only).
func (h *StageHistograms) settle(i int) *stats.Histogram {
	h.run[i].settle(&h.own[i])
	return &h.own[i]
}

// Publish copies the owner's histograms into the published set (owner
// only).
func (h *StageHistograms) Publish() {
	if h == nil {
		return
	}
	for i := range h.pub {
		h.pub[i].store(h.settle(i))
	}
}

// Snapshot copies the published histograms: the values of the last
// Publish.
func (h *StageHistograms) Snapshot() [NumStages]stats.Histogram {
	var out [NumStages]stats.Histogram
	if h == nil {
		return out
	}
	for i := range h.pub {
		out[i] = h.pub[i].Snapshot()
	}
	return out
}

// TraceCtx is the request-scoped trace context threaded from the serving
// front end (internal/server assigns the trace ID as the request enters,
// HTTP or TCP) through the shard into the scheme's telemetry hooks,
// so trace events and flight-recorder entries produced deep in the write
// path can be joined back to the network request that caused them.
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
}
