package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/telemetry"
)

// Batched routing: a client batch frame is split by replica set, and each
// group's sub-batch goes to its replicas as one frame per node — every
// frame of the batch is sent in one wave before any reply is read, and
// the frames one node gets share one connection and one push. Sub-batches
// preserve the client's op order within each node; cross-node ordering is
// unordered, exactly as concurrent scalar writes would be. A node serves
// its frames one by one, in group order, so each sub-batch stays one
// arrival group on its shards, as it would on a connection of its own.
//
// Replication semantics match the scalar paths: a write sub-batch fans
// to every healthy replica of its set and the primary-most per-op success
// wins (replies are merged group by group, primary-first); a read
// sub-batch goes to its set's first healthy replica, and ops it left
// unanswered walk the followers one frame at a time. Batched reads bypass
// hedging and read-repair sampling — those are per-address
// latency/consistency machinery, and the batch path exists for
// throughput. Ops that no replica accepted fall back to the scalar path,
// which retains the full retry/failover budget.

// batchGroup collects the op indices that share one replica set, and the
// group's sub-batch.
type batchGroup struct {
	set   []*nodeState
	idxs  []int
	ops   []server.BatchWriteOp // write sub-batch
	addrs []uint64              // read sub-batch
}

// batchFrame is one sub-batch frame of a wave: group gi's sub-batch bound
// for replica ri of its set, with the frame's own result buffer.
type batchFrame struct {
	nodeFrame
	gi, ri int
	wres   []server.BatchWriteResult
	rres   []server.BatchReadResult
}

// batchScratch is the per-call working memory of WriteBatchTraced and
// ReadBatchTraced, recycled through batchScratchPool so a steady stream of
// batches does not allocate in the router.
type batchScratch struct {
	done   []bool
	index  map[setKey]int
	states []*nodeState // routeView's cache
	groups []batchGroup // groups[:n] are live; the rest keep their buffers
	frames []batchFrame // likewise
	conns  []waveConn   // the wave's connections, one per node it can reach

	// Backing arrays the groups' sub-batches and the frames' result
	// buffers are carved from, so a refilled scratch grows one array of
	// each instead of one per group and per frame.
	ops   []server.BatchWriteOp
	addrs []uint64
	wres  []server.BatchWriteResult
	rres  []server.BatchReadResult
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{index: make(map[setKey]int)}
}}

func getBatchScratch(n int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	sc.done = append(sc.done[:0], make([]bool, n)...)
	sc.frames = sc.frames[:0]
	return sc
}

// release drops the node references the scratch holds and pools it.
func (sc *batchScratch) release() {
	for i := range sc.groups {
		clear(sc.groups[i].set)
	}
	for i := range sc.frames {
		sc.frames[i].nodeFrame = nodeFrame{}
	}
	clear(sc.index)
	clear(sc.states)
	clear(sc.conns)
	batchScratchPool.Put(sc)
}

// waveConns returns room for one wave connection per node
// groupByReplicaSet numbered.
func (sc *batchScratch) waveConns() []waveConn {
	n := len(sc.states)
	if cap(sc.conns) < n {
		sc.conns = make([]waveConn, n)
	}
	sc.conns = sc.conns[:n]
	return sc.conns
}

// carve takes the next n elements of *buf, which the caller has grown to
// hold them.
func carve[T any](buf *[]T, n int) []T {
	lo := len(*buf)
	*buf = (*buf)[:lo+n]
	return (*buf)[lo : lo+n : lo+n]
}

// frame appends a wave frame for replica ri of group gi. The pointer is
// valid until the next call.
func (sc *batchScratch) frame(gi, ri int, st *nodeState) *batchFrame {
	if n := len(sc.frames); n < cap(sc.frames) {
		sc.frames = sc.frames[:n+1]
	} else {
		sc.frames = append(sc.frames, batchFrame{})
	}
	f := &sc.frames[len(sc.frames)-1]
	f.nodeFrame = nodeFrame{st: st}
	f.gi, f.ri = gi, ri
	return f
}

// groupByReplicaSet buckets ops [0,n) by their candidate set as
// routeSet gives it, in first-touch order. It reads the rings under one
// read lock for the whole batch, keys groups by ring indices and resolves
// each node's state once. addrOf maps an op index to its address. It
// reports whether a migration was in flight, in which case a write's
// sets include the next ring's replicas.
func (r *Router) groupByReplicaSet(sc *batchScratch, addrOf func(i int) uint64, n int, forWrite bool) (groups []batchGroup, migrating bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v := routeView{r: r, ring: r.ring, next: r.next}
	sc.states = append(sc.states[:0], make([]*nodeState, v.nodes())...)
	v.states = sc.states
	groups = sc.groups[:0]
	var buf [2 * maxReplicas]*nodeState
	for i := 0; i < n; i++ {
		k, key := v.set(addrOf(i), forWrite, buf[:])
		gi, ok := sc.index[key]
		if !ok {
			gi = len(groups)
			sc.index[key] = gi
			if gi < cap(groups) {
				groups = groups[:gi+1]
			} else {
				groups = append(groups, batchGroup{})
			}
			g := &groups[gi]
			g.set = append(g.set[:0], buf[:k]...)
			g.idxs = g.idxs[:0]
		}
		groups[gi].idxs = append(groups[gi].idxs, i)
	}
	sc.groups = groups
	return groups, v.next != nil
}

// WriteBatch routes a batch of writes. While a reshard migration is in
// flight the whole batch takes the scalar Write path op by op — that
// path carries the dual-write and dirty-address-tracking semantics the
// replay correctness argument depends on, and migrations are rare and
// short. Otherwise ops are grouped by replica set and each group fans
// out as one sub-batch frame per healthy replica, every frame sent
// before any reply is read.
//
// The error return is non-nil only for caller mistakes (mismatched
// slice lengths); routing failures are reported per op in res[i].Err.
func (r *Router) WriteBatch(ops []server.BatchWriteOp, res []server.BatchWriteResult) error {
	return r.WriteBatchTraced(r.NewTraceID(), ops, res)
}

// WriteBatchTraced is WriteBatch under a caller-supplied trace ID: the
// whole batch shares one ID (per-op correlation inside a batch is the
// node-side flight recorder's job), and the route hop event records the
// replica-set fan-out in its attempt field.
func (r *Router) WriteBatchTraced(trace uint64, ops []server.BatchWriteOp, res []server.BatchWriteResult) error {
	if len(res) != len(ops) {
		return fmt.Errorf("cluster: results slice len %d != ops len %d", len(res), len(ops))
	}
	if len(ops) == 0 {
		return nil
	}
	began := time.Now()
	if r.Resharding() {
		for i := range ops {
			out, err := r.WriteTraced(trace, ops[i].Addr, ops[i].Line)
			if err != nil {
				res[i] = server.BatchWriteResult{Err: err}
				continue
			}
			res[i] = server.BatchWriteResult{Dedup: out.Dedup, PhysAddr: out.PhysAddr, LatencyNs: out.LatencyNs}
		}
		return nil
	}

	sc := getBatchScratch(len(ops))
	defer sc.release()
	done := sc.done
	groups, migrating := r.groupByReplicaSet(sc, func(i int) uint64 { return ops[i].Addr }, len(ops), true)
	if migrating {
		// A reshard began after the Resharding check, so the groups
		// dual-write: mark every address dirty before any frame goes out,
		// so the replay cannot clobber them (see reshard.go).
		for i := range ops {
			r.markDirty(ops[i].Addr)
		}
	}
	nres := 0
	for gi := range groups {
		nres += len(groups[gi].idxs) * len(groups[gi].set)
	}
	sc.ops = slices.Grow(sc.ops[:0], len(ops))
	sc.wres = slices.Grow(sc.wres[:0], nres)
	w := wave{r: r, trace: trace, op: server.OpWriteBatch, conns: sc.waveConns()}
	for gi := range groups {
		g := &groups[gi]
		g.ops = carve(&sc.ops, len(g.idxs))
		for j, i := range g.idxs {
			g.ops[j] = ops[i]
		}
		for ri, st := range g.set {
			if !st.up.Load() {
				continue
			}
			f := sc.frame(gi, ri, st)
			f.wres = carve(&sc.wres, len(g.ops))
			w.send(&f.nodeFrame, g.ops[0].Addr, func(c *server.TCPClient) error {
				return c.SendWriteBatch(trace, g.ops)
			})
		}
	}
	w.push()
	for k := range sc.frames {
		f := &sc.frames[k]
		g := &groups[f.gi]
		err := w.settle(&f.nodeFrame, g.ops[0].Addr,
			func(c *server.TCPClient) error { return c.SendWriteBatch(trace, g.ops) },
			func(c *server.TCPClient) error {
				_, err := c.RecvWriteBatch(f.wres)
				return err
			})
		if err != nil {
			continue // settle already counted the error and marked health
		}
		accepted := uint64(0)
		for j, i := range g.idxs {
			if f.wres[j].Err != nil {
				continue
			}
			accepted++
			if done[i] {
				continue
			}
			done[i] = true
			res[i] = f.wres[j]
			if f.ri > 0 {
				// The primary never accepted this op; a replica did.
				r.failovers.Add(1)
			}
		}
		f.st.writes.Add(accepted)
	}

	// Scalar fallback: any op no replica accepted retries through the
	// full per-op failover machinery before reporting failure.
	for i := range ops {
		if done[i] {
			continue
		}
		out, err := r.WriteTraced(trace, ops[i].Addr, ops[i].Line)
		if err != nil {
			res[i] = server.BatchWriteResult{Err: err}
			continue
		}
		res[i] = server.BatchWriteResult{Dedup: out.Dedup, PhysAddr: out.PhysAddr, LatencyNs: out.LatencyNs}
	}
	// The batch route event: Attempt carries the replica-set fan-out
	// (how many sub-batch frames the batch split into).
	r.hop(telemetry.HopRoute, trace, server.OpWriteBatch, nil, ops[0].Addr, len(groups), 0, began)
	return nil
}

// ReadBatch routes a batch of reads, one sub-batch frame per distinct
// replica set, walking each set primary-first until every op in the
// group has an answer; the groups' first frames go out together. Ops no replica answered fall back to scalar
// Read. The error return is non-nil only for caller mistakes; routing
// failures are reported per op in res[i].Err.
func (r *Router) ReadBatch(addrs []uint64, res []server.BatchReadResult) error {
	return r.ReadBatchTraced(r.NewTraceID(), addrs, res)
}

// ReadBatchTraced is ReadBatch under a caller-supplied trace ID (see
// WriteBatchTraced for the batch trace semantics).
func (r *Router) ReadBatchTraced(trace uint64, addrs []uint64, res []server.BatchReadResult) error {
	if len(res) != len(addrs) {
		return fmt.Errorf("cluster: results slice len %d != addrs len %d", len(res), len(addrs))
	}
	if len(addrs) == 0 {
		return nil
	}
	began := time.Now()
	sc := getBatchScratch(len(addrs))
	defer sc.release()
	done := sc.done
	groups, _ := r.groupByReplicaSet(sc, func(i int) uint64 { return addrs[i] }, len(addrs), false)
	sc.addrs = slices.Grow(sc.addrs[:0], len(addrs))
	sc.rres = slices.Grow(sc.rres[:0], len(addrs))
	w := wave{r: r, trace: trace, op: server.OpReadBatch, conns: sc.waveConns()}
	for gi := range groups {
		g := &groups[gi]
		g.addrs = carve(&sc.addrs, len(g.idxs))
		for j, i := range g.idxs {
			g.addrs[j] = addrs[i]
		}
		for ri, st := range g.set {
			if !st.up.Load() {
				continue
			}
			f := sc.frame(gi, ri, st)
			f.rres = carve(&sc.rres, len(g.addrs))
			w.send(&f.nodeFrame, g.addrs[0], func(c *server.TCPClient) error {
				return c.SendReadBatch(trace, g.addrs)
			})
			break
		}
	}
	w.push()
	for k := range sc.frames {
		f := &sc.frames[k]
		g := &groups[f.gi]
		send := func(c *server.TCPClient) error { return c.SendReadBatch(trace, g.addrs) }
		recv := func(c *server.TCPClient) error {
			_, err := c.RecvReadBatch(f.rres)
			return err
		}
		remaining := len(g.idxs)
		for ri := f.ri; ri < len(g.set) && remaining > 0; ri++ {
			st := g.set[ri]
			if ri > f.ri {
				// Ops the wave left unanswered walk the followers one
				// frame at a time, each on a connection of its own.
				if !st.up.Load() {
					continue
				}
				f.nodeFrame = nodeFrame{st: st}
				w.send(&f.nodeFrame, g.addrs[0], send)
			}
			if w.settle(&f.nodeFrame, g.addrs[0], send, recv) != nil {
				continue
			}
			answered := uint64(0)
			for j, i := range g.idxs {
				if f.rres[j].Err != nil {
					continue
				}
				answered++
				if done[i] {
					continue
				}
				done[i] = true
				remaining--
				res[i] = f.rres[j]
				if ri > 0 {
					r.failovers.Add(1)
				}
			}
			st.reads.Add(answered)
		}
	}
	for i := range addrs {
		if done[i] {
			continue
		}
		out, err := r.ReadTraced(trace, addrs[i])
		if err != nil {
			res[i] = server.BatchReadResult{Err: err}
			continue
		}
		rr := server.BatchReadResult{Hit: out.Hit, LatencyNs: out.LatencyNs}
		copy(rr.Data[:], out.Data)
		res[i] = rr
	}
	r.hop(telemetry.HopRoute, trace, server.OpReadBatch, nil, addrs[0], len(groups), 0, began)
	return nil
}
