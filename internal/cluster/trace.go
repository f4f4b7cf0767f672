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
// current attempt.
type nodeFrame struct {
	st *nodeState
	a  int // current attempt, 0-based
	// conn is the attempt's connection: an index into the wave's conns,
	// or -1 for own, the connection of a retry or of a frame sent after
	// the wave's push.
	conn int
	own  waveConn
	sent time.Time // when the attempt's send began
	err  error     // the attempt's error
}

// waveConn is one pooled connection a wave holds to one node. Attempt 0
// of every frame the wave sends the node is buffered on it back to back,
// the connection is pushed once, and the replies are read in send order.
// A transport error fails attempt 0 of every frame not yet read from it;
// a status reply leaves it clean for the frames behind it. It goes back
// to the pool, or is discarded, once its last frame settles.
type waveConn struct {
	st   *nodeState
	c    *server.TCPClient // nil if the checkout failed
	err  error             // the checkout's error, or the first transport error
	left int               // frames sent on c and not yet settled
}

// wave is one request's frames in flight. Every data path routes through
// one: WriteTraced and read repair send one frame per replica, the batch
// paths one sub-batch frame per replica set and replica, and doNodeCtx
// one round trip. send buffers attempt 0 of each frame on the wave's
// connection to its node, push writes every connection out once, and
// settle reads each frame's reply, in send order, spending the node's
// retry budget one attempt at a time, each on a connection of its own.
type wave struct {
	r     *Router
	trace uint64
	op    byte
	// conns has room for one connection per node the wave can reach;
	// conns[:n] are checked out.
	conns  []waveConn
	n      int
	pushed bool // frames sent from now on go out at once, each on its own connection
}

// conn returns f's connection.
func (w *wave) conn(f *nodeFrame) *waveConn {
	if f.conn < 0 {
		return &f.own
	}
	return &w.conns[f.conn]
}

// send starts attempt f.a of a frame: past the first attempt it counts
// and records a retry. Attempt 0 of a frame sent before the push shares
// the wave's connection to f's node, checked out by the node's first
// frame; any later attempt, or a frame sent after the push, checks out
// its own and is pushed at once.
func (w *wave) send(f *nodeFrame, addr uint64, send func(c *server.TCPClient) error) {
	if f.a > 0 {
		w.r.retries.Add(1)
		w.r.hopNow(telemetry.HopRetry, w.trace, w.op, f.st, addr, f.a, server.StatusOf(f.err))
	}
	f.conn = -1
	if f.a == 0 && !w.pushed {
		for i := 0; i < w.n && f.conn < 0; i++ {
			if w.conns[i].st == f.st {
				f.conn = i
			}
		}
		if f.conn < 0 {
			f.conn = w.n
			w.n++
			w.checkout(&w.conns[f.conn], f.st, addr, 0)
		}
	} else {
		w.checkout(&f.own, f.st, addr, f.a)
	}
	wc := w.conn(f)
	wc.left++
	f.sent, f.err = time.Now(), nil
	if wc.c == nil || wc.err != nil {
		return // finish fails the attempt with wc.err
	}
	if err := send(wc.c); err != nil {
		if isStatusErr(err) {
			f.err = err // a round trip's status reply: the connection is clean
		} else {
			wc.err = err
		}
	}
	if w.pushed {
		wc.push()
	}
}

// checkout borrows a pooled connection to st into wc for attempt a
// (checkout hop) and arms the request deadline.
func (w *wave) checkout(wc *waveConn, st *nodeState, addr uint64, a int) {
	*wc = waveConn{st: st}
	t0 := time.Now()
	c, err := st.pool.Get()
	if err != nil {
		wc.err = err
		st.errs.Add(1)
		return
	}
	w.r.hop(telemetry.HopCheckout, w.trace, w.op, st, addr, a, 0, t0)
	_ = c.SetDeadline(time.Now().Add(w.r.cfg.RequestTimeout))
	wc.c = c
}

// push writes out the frames buffered on wc.
func (wc *waveConn) push() {
	if wc.c != nil && wc.err == nil {
		wc.err = wc.c.Push()
	}
}

// push writes out every connection of the wave, once each, before any
// reply is read.
func (w *wave) push() {
	for i := range w.conns[:w.n] {
		w.conns[i].push()
	}
	w.pushed = true
}

// start sends attempt 0 of one frame per healthy node of set, in set
// order, and pushes them before any reply is read; frames[i] stays empty
// for a node that is down. The caller settles the started frames in the
// same order.
func (w *wave) start(frames []nodeFrame, set []*nodeState, addr uint64, send func(c *server.TCPClient) error) {
	for i, st := range set {
		if st.up.Load() {
			frames[i] = nodeFrame{st: st}
			w.send(&frames[i], addr, send)
		}
	}
	w.push()
}

// finish ends attempt f.a: unless the checkout, the send or an earlier
// frame on the connection failed, it receives the reply (recv nil means
// send did the whole round trip), records the attempt hop, and releases
// the connection when this was its last frame. It reports whether the
// node's retry budget allows another attempt; when the budget is spent,
// or the node is draining, the node is marked down.
func (w *wave) finish(f *nodeFrame, addr uint64, recv func(c *server.TCPClient) error) (retry bool) {
	r := w.r
	wc := w.conn(f)
	wc.left--
	if wc.c == nil {
		// The checkout failed (already counted); a retry re-dials.
		f.err = wc.err
	} else {
		if f.err == nil {
			f.err = wc.err
		}
		if f.err == nil && recv != nil {
			// The deadline was set at checkout. Re-arm the read side: a
			// reply read late because earlier frames of the wave were
			// settled first is not a wedged node. Every frame has been
			// written by now.
			_ = wc.c.SetReadDeadline(time.Now().Add(r.cfg.RequestTimeout))
			if f.err = recv(wc.c); f.err != nil && !isStatusErr(f.err) {
				wc.err = f.err // the framing is lost for every frame behind
			}
		}
		r.hop(telemetry.HopAttempt, w.trace, w.op, f.st, addr, f.a, server.StatusOf(f.err), f.sent)
		if wc.left == 0 {
			if wc.err == nil {
				f.st.pool.Put(wc.c)
			} else {
				f.st.pool.Discard(wc.c)
			}
			wc.c = nil
		}
		if f.err == nil {
			return false
		}
		f.st.errs.Add(1)
		if errors.Is(f.err, server.ErrClosing) {
			r.markDownTr(f.st, f.err, w.trace, w.op, addr)
			return false
		}
		if !retryable(f.err) && isStatusErr(f.err) {
			return false
		}
	}
	if f.a < r.cfg.RetriesPerNode {
		return true
	}
	r.markDownTr(f.st, f.err, w.trace, w.op, addr)
	return false
}

// settle finishes f's attempt in flight, then spends the rest of the
// node's retry budget one attempt at a time, and returns the last
// attempt's error (nil on success).
func (w *wave) settle(f *nodeFrame, addr uint64, send, recv func(c *server.TCPClient) error) error {
	for w.finish(f, addr, recv) {
		f.a++
		w.send(f, addr, send)
	}
	return f.err
}

// doNodeCtx is doNode with trace context: it runs one round trip f
// against one node under the per-node retry budget — a wave of one frame
// — recording checkout, attempt, retry and markDown hops as it goes. op
// is the protocol op byte the caller is routing ('W', 'R', 'B', 'b'; 0
// for control traffic).
func (r *Router) doNodeCtx(st *nodeState, trace uint64, op byte, addr uint64, f func(c *server.TCPClient) error) error {
	var conns [1]waveConn
	w := wave{r: r, trace: trace, op: op, conns: conns[:]}
	nf := nodeFrame{st: st}
	w.send(&nf, addr, f)
	w.push()
	return w.settle(&nf, addr, f, nil)
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
