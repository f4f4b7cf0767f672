package telemetry

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
