package telemetry

import (
	"time"

	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
)

// Hop identifies one attempt-level event on a routed request's cross-node
// path. Where Stage decomposes what a single node's write pipeline did,
// Hop decomposes what the cluster router did to get the request to a node
// at all: which replica it picked, how long the pool checkout took,
// whether it retried, failed over, hedged, or repaired. Together with the
// trace ID propagated on the wire, hop events let one request be followed
// from the router edge through every machine it touched.
type Hop uint8

// Router-side hop events.
const (
	// HopRoute is the whole routed request, recorded once on completion.
	HopRoute Hop = iota
	// HopAttempt is one round trip against one backend node.
	HopAttempt
	// HopCheckout is the connection-pool checkout preceding an attempt
	// (a dial when the pool is empty, ~free when a connection is idle).
	HopCheckout
	// HopRetry is a fresh attempt against the same node after a
	// retryable failure.
	HopRetry
	// HopFailover is a request served by a non-primary replica because
	// the primary was down or failed.
	HopFailover
	// HopHedge is a hedged read fired at the follower because the
	// primary had not answered within the hedge delay.
	HopHedge
	// HopHedgeWin is a hedged read won by the follower.
	HopHedgeWin
	// HopReadRepair is a sampled read-repair reconciliation write.
	HopReadRepair
	// HopMarkDown is a node taken out of rotation on a data-path failure.
	HopMarkDown

	// NumHops is the number of hop kinds.
	NumHops = int(HopMarkDown) + 1
)

// String implements fmt.Stringer; the names double as metric label values
// and /statusz section keys.
func (h Hop) String() string {
	switch h {
	case HopRoute:
		return "route"
	case HopAttempt:
		return "attempt"
	case HopCheckout:
		return "checkout"
	case HopRetry:
		return "retry"
	case HopFailover:
		return "failover"
	case HopHedge:
		return "hedge"
	case HopHedgeWin:
		return "hedge-win"
	case HopReadRepair:
		return "read-repair"
	case HopMarkDown:
		return "mark-down"
	default:
		return "unknown"
	}
}

// wallToSim converts a wall-clock duration to the simulated-time unit the
// shared histogram machinery stores (hop latencies are real network time,
// but reusing stats.Histogram keeps one exposition path).
func wallToSim(d time.Duration) sim.Time {
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond
}

// HopHistograms is a per-hop-kind latency histogram set — the router-side
// sibling of StageHistograms. The zero value is ready to use; Observe and
// Snapshot may run concurrently. All methods are nil-safe no-ops, matching
// the other telemetry primitives.
type HopHistograms [NumHops]TimeHistogram

// Observe records one hop latency. Nil-safe and allocation-free.
func (h *HopHistograms) Observe(hop Hop, d time.Duration) {
	if h == nil || int(hop) >= NumHops {
		return
	}
	h[hop].Observe(wallToSim(d))
}

// Snapshot copies every hop histogram (zero histograms for nil).
func (h *HopHistograms) Snapshot() [NumHops]stats.Histogram {
	var out [NumHops]stats.Histogram
	if h == nil {
		return out
	}
	for i := range h {
		out[i] = h[i].Snapshot()
	}
	return out
}

// HopRecorder is the router's flight recorder: a fixed-size ring holding
// the last N attempt-level events with their trace IDs, node names and
// wall-clock timing — the cross-node black box that esdrouter's esdtrace
// subcommand joins against each member node's per-shard flight recorder
// to reconstruct one request's full path.
//
// The recording discipline is FlightRecorder's (see ring): recording
// never blocks and never allocates (the node name is a string header
// copy, not a new string).
type HopRecorder struct {
	ring ring[hopRec]
}

// hopRec is one raw ring entry.
type hopRec struct {
	trace   uint64
	addr    uint64
	atNs    int64
	latNs   int64
	node    string
	hop     Hop
	op      byte
	attempt int32
	status  byte
}

// DefaultHopEvents is the ring size used when none is given. Routed
// requests emit several events each (route + per-node attempts), so the
// router ring defaults larger than the per-shard recorder.
const DefaultHopEvents = 1024

// NewHopRecorder builds a recorder holding the last `slots` events,
// rounded up to a power of two (<=0 selects DefaultHopEvents).
func NewHopRecorder(slots int) *HopRecorder {
	return &HopRecorder{ring: newRing[hopRec](slots, DefaultHopEvents)}
}

// Cap returns the ring capacity (0 for nil).
func (r *HopRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.ring.capacity()
}

// Len returns how many events are currently held (0 for nil).
func (r *HopRecorder) Len() int {
	if r == nil {
		return 0
	}
	return r.ring.held()
}

// Record appends one hop event. op is the protocol op byte ('W', 'R',
// 'B', 'b'; 0 for non-data events), status the protocol status byte the
// event resolved to (0 = OK), atNs the wall-clock UnixNano at which the
// hop began. Nil-safe and allocation-free; never blocks (a concurrent
// dump drops the record instead).
func (r *HopRecorder) Record(hop Hop, trace uint64, op byte, node string, addr uint64, attempt int, status byte, atNs int64, lat time.Duration) {
	if r == nil {
		return
	}
	r.ring.put(hopRec{
		trace: trace, addr: addr, atNs: atNs, latNs: lat.Nanoseconds(),
		node: node, hop: hop, op: op, attempt: int32(attempt), status: status,
	})
}

// HopRecord is one decoded router flight-recorder event, shaped for JSON
// exposition (the router's /debug/flightrecorder) and esdtrace.
type HopRecord struct {
	// Seq orders events within one recorder (ascending = older to newer).
	Seq uint64 `json:"seq"`
	// Trace is the routed request's trace ID (0 = untraced traffic).
	Trace uint64 `json:"trace,omitempty"`
	// Hop is the event kind (Hop.String()).
	Hop string `json:"hop"`
	// Op is the data op the event served: "write", "read", "write-batch",
	// "read-batch", or "" for non-data events.
	Op string `json:"op,omitempty"`
	// Node is the backend the event touched ("" for router-local events).
	Node string `json:"node,omitempty"`
	Addr uint64 `json:"addr"`
	// Attempt is the 0-based attempt index on the node (batch routes reuse
	// it as the sub-batch fan-out count on the route event).
	Attempt int `json:"attempt,omitempty"`
	// Status is the protocol status byte the event resolved to (0 = OK).
	Status int  `json:"status"`
	OK     bool `json:"ok"`
	// AtUnixNs is the wall-clock UnixNano at which the hop began.
	AtUnixNs int64 `json:"at_unix_ns"`
	// LatNs is the hop's wall-clock duration in nanoseconds.
	LatNs float64 `json:"lat_ns"`
}

// opName maps protocol op bytes onto the names HopRecord exposes.
func opName(op byte) string {
	switch op {
	case 'W':
		return "write"
	case 'R':
		return "read"
	case 'B':
		return "write-batch"
	case 'b':
		return "read-batch"
	case 0:
		return ""
	default:
		return string(rune(op))
	}
}

// Snapshot decodes the ring's current contents, oldest first. It
// allocates (it is the cold dump path) and may run concurrently with
// writers (see ring.snapshot).
func (r *HopRecorder) Snapshot() []HopRecord {
	if r == nil {
		return nil
	}
	out := make([]HopRecord, 0, r.ring.held())
	r.ring.snapshot(func(seq uint64, s *hopRec) {
		out = append(out, HopRecord{
			Seq:      seq,
			Trace:    s.trace,
			Hop:      s.hop.String(),
			Op:       opName(s.op),
			Node:     s.node,
			Addr:     s.addr,
			Attempt:  int(s.attempt),
			Status:   int(s.status),
			OK:       s.status == 0,
			AtUnixNs: s.atNs,
			LatNs:    float64(s.latNs),
		})
	})
	return out
}
