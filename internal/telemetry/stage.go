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

// StageHistograms is a per-stage latency histogram set. The zero value is
// ready to use; Observe and Snapshot may run concurrently (each underlying
// TimeHistogram takes its own mutex), so a scrape never needs to stop the
// pipeline.
type StageHistograms [NumStages]TimeHistogram

// Observe records every non-zero stage of one request. Zero stages are
// skipped: a scheme that never touches the NVMM fingerprint index should
// show an empty fp-nvmm histogram, not a spike at zero.
func (h *StageHistograms) Observe(st *StageTimes) {
	if h == nil {
		return
	}
	for i, d := range st {
		if d > 0 {
			h[i].Observe(d)
		}
	}
}

// Snapshot copies every stage histogram.
func (h *StageHistograms) Snapshot() [NumStages]stats.Histogram {
	var out [NumStages]stats.Histogram
	if h == nil {
		return out
	}
	for i := range h {
		out[i] = h[i].Snapshot()
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
