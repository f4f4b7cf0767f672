package cluster

import (
	"errors"
	"sync/atomic"
	"time"

	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// Router-side distributed tracing.
//
// The router is the trace originator for the cluster: every routed request
// gets one fleet-wide trace ID — minted here for client frames with trace
// 0, adopted from the wire otherwise — and the ID is propagated to every
// backend the request touches in the frames' trace field. Backends adopt
// it (shard.Engine.AdoptTrace), so the same ID shows up in the router's
// flight recorder, each node's slow-request log and per-shard flight
// recorders, and the client response.
//
// Router trace IDs are offset by a boot-time base so they are visually
// distinct from node-local IDs (small monotonic integers): a 20-bit-
// shifted UnixNano base makes collisions with node-minted IDs practically
// impossible, which is what lets esdtrace grep all machines for one ID.

// NewTraceID mints the next fleet-wide trace ID (never 0).
func (r *Router) NewTraceID() uint64 {
	return r.traceBase + r.traceSeq.Add(1)
}

// HopLatencies summarizes the per-hop latency set, keyed by hop name.
func (r *Router) HopLatencies() map[string]telemetry.LatencySummary {
	var hists [telemetry.NumHops]stats.Histogram
	r.hops.Snapshot(hists[:])
	return telemetry.Summarize[telemetry.Hop](hists[:])
}

// HopRecordsLen returns how many records the router flight recorder
// holds, without decoding or locking any ring slot.
func (r *Router) HopRecordsLen() int { return r.flight.Len() }

// HopRecords snapshots the router flight recorder, oldest first.
func (r *Router) HopRecords() []telemetry.Record {
	return r.flight.Snapshot()
}

// hop records one duration event that began at `began` on node st (nil
// for the router-local route and repair hops).
func (r *Router) hop(h telemetry.Hop, trace uint64, op byte, st *nodeState, addr uint64, attempt int, status byte, began time.Time) {
	d := time.Since(began)
	r.hops.Observe(int(h), sim.Time(d.Nanoseconds())*sim.Nanosecond)
	r.flight.RecordHop(h, trace, op, nodeName(st), addr, attempt, status, began.UnixNano(), d)
}

// hopNow records one point event (retry decision, markDown, hedge fire).
func (r *Router) hopNow(h telemetry.Hop, trace uint64, op byte, st *nodeState, addr uint64, attempt int, status byte) {
	r.hops.Observe(int(h), 0)
	r.flight.RecordHop(h, trace, op, nodeName(st), addr, attempt, status, time.Now().UnixNano(), 0)
}

// nodeName is the name a hop record keeps for node st (nil for none): a
// pointer to the node's own name, which never changes, so recording a hop
// copies no string.
func nodeName(st *nodeState) *string {
	if st == nil {
		return nil
	}
	return &st.node.Name
}

// nodeFrame is one frame bound for one node, with the state of its
// current attempt. A wave (WriteTraced, the batch paths, read repair)
// starts attempt 0 of every frame before it settles any; doNodeCtx starts
// and settles each attempt in turn.
type nodeFrame struct {
	st   *nodeState
	a    int               // current attempt, 0-based
	c    *server.TCPClient // the attempt's connection; nil if checkout failed
	sent time.Time         // when the attempt's send began
	err  error             // the checkout's or the send's error, then the attempt's
}

// start begins attempt f.a: past the first attempt it counts and records
// a retry; then it checks out a pooled connection (checkout hop), sets
// the request deadline and sends the frame.
func (r *Router) start(f *nodeFrame, trace uint64, op byte, addr uint64, send func(c *server.TCPClient) error) {
	if f.a > 0 {
		r.retries.Add(1)
		r.hopNow(telemetry.HopRetry, trace, op, f.st, addr, f.a, server.StatusOf(f.err))
	}
	t0 := time.Now()
	c, err := f.st.pool.Get()
	if err != nil {
		f.c, f.err = nil, err
		f.st.errs.Add(1)
		return
	}
	r.hop(telemetry.HopCheckout, trace, op, f.st, addr, f.a, 0, t0)
	_ = c.SetDeadline(time.Now().Add(r.cfg.RequestTimeout))
	f.c, f.sent = c, time.Now()
	f.err = send(c)
}

// finish ends attempt f.a: unless the checkout or the send failed, it
// receives the reply (recv nil means send did the whole round trip),
// records the attempt hop and returns the connection to the pool, or
// discards it when its framing is broken. It reports whether the node's
// retry budget allows another attempt; when the budget is spent, or the
// node is draining, the node is marked down.
func (r *Router) finish(f *nodeFrame, trace uint64, op byte, addr uint64, recv func(c *server.TCPClient) error) (retry bool) {
	if c := f.c; c != nil {
		f.c = nil
		if f.err == nil && recv != nil {
			// The deadline was set at send. Re-arm it: a reply read late
			// because earlier frames of the wave were settled first is not
			// a wedged node.
			_ = c.SetDeadline(time.Now().Add(r.cfg.RequestTimeout))
			f.err = recv(c)
		}
		r.hop(telemetry.HopAttempt, trace, op, f.st, addr, f.a, server.StatusOf(f.err), f.sent)
		if f.err == nil {
			f.st.pool.Put(c)
			return false
		}
		f.st.errs.Add(1)
		if isStatusErr(f.err) {
			f.st.pool.Put(c) // frame completed; connection still clean
		} else {
			f.st.pool.Discard(c)
		}
		if errors.Is(f.err, server.ErrClosing) {
			r.markDownTr(f.st, f.err, trace, op, addr)
			return false
		}
		if !retryable(f.err) && isStatusErr(f.err) {
			return false
		}
	} // else the checkout failed (already counted); a retry re-dials
	if f.a < r.cfg.RetriesPerNode {
		return true
	}
	r.markDownTr(f.st, f.err, trace, op, addr)
	return false
}

// settle finishes f's attempt in flight, then spends the rest of the
// node's retry budget one attempt at a time, and returns the last
// attempt's error (nil on success).
func (r *Router) settle(f *nodeFrame, trace uint64, op byte, addr uint64, send, recv func(c *server.TCPClient) error) error {
	for r.finish(f, trace, op, addr, recv) {
		f.a++
		r.start(f, trace, op, addr, send)
	}
	return f.err
}

// doNodeCtx is doNode with trace context: it runs one round trip f
// against one node under the per-node retry budget, recording checkout,
// attempt, retry and markDown hops as it goes. op is the protocol op byte
// the caller is routing ('W', 'R', 'B', 'b'; 0 for control traffic).
func (r *Router) doNodeCtx(st *nodeState, trace uint64, op byte, addr uint64, f func(c *server.TCPClient) error) error {
	nf := nodeFrame{st: st}
	r.start(&nf, trace, op, addr, f)
	return r.settle(&nf, trace, op, addr, f, nil)
}

// markDownTr is markDown carrying the trace context of the failure that
// triggered it, so the mark-down lands in the router's flight recorder
// under the request's ID.
func (r *Router) markDownTr(st *nodeState, err error, trace uint64, op byte, addr uint64) {
	if st.up.Swap(false) {
		r.logf("cluster: node %s marked down (trace=%d): %v", st.node.Name, trace, err)
		r.hopNow(telemetry.HopMarkDown, trace, op, st, addr, 0, server.StatusOf(err))
	}
}

// hopSeq is the process-wide source of router trace-base uniqueness when
// several routers share one process (tests): each router's base is offset
// by its boot order so two routers never mint overlapping IDs.
var hopSeq atomic.Uint64
