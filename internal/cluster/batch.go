package cluster

import (
	"fmt"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/telemetry"
)

// Batched routing: a client batch frame is split by replica set, so each
// backend sees exactly one sub-batch frame per Router batch (one round
// trip per touched node, not per op). Sub-batches preserve the client's
// op order within each node; cross-node ordering is unordered, exactly
// as concurrent scalar writes would be.
//
// Replication semantics match the scalar paths: a write sub-batch fans
// to every healthy replica of its set (primary-first) and the
// primary-most per-op success wins; a read sub-batch walks the replicas
// primary-first and stops at the first node that answered every
// remaining op. Batched reads bypass hedging and read-repair sampling —
// those are per-address latency/consistency machinery, and the batch
// path exists for throughput. Ops that no replica accepted fall back to
// the scalar path, which retains the full retry/failover budget.

// batchGroup collects the op indices that share one replica set.
type batchGroup struct {
	set  []*nodeState
	idxs []int
}

// setKey identifies a replica set by its primary-first node names; unused
// slots stay empty. As a comparable array it keys a map without a
// per-insert allocation.
type setKey [2 * maxReplicas]string

// batchScratch is the per-call working memory of WriteBatchTraced and
// ReadBatchTraced, recycled through batchScratchPool so a steady stream of
// batches does not allocate in the router.
type batchScratch struct {
	done   []bool
	index  map[setKey]int
	groups []batchGroup // groups[:n] are live; the rest keep their buffers

	subAddrs []uint64
	subOps   []server.BatchWriteOp
	subWRes  []server.BatchWriteResult
	subRRes  []server.BatchReadResult
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{index: make(map[setKey]int)}
}}

func getBatchScratch(n int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	sc.done = append(sc.done[:0], make([]bool, n)...)
	return sc
}

// release drops the node references the scratch holds and pools it.
func (sc *batchScratch) release() {
	for i := range sc.groups {
		clear(sc.groups[i].set)
	}
	clear(sc.index)
	batchScratchPool.Put(sc)
}

// groupByReplicaSet buckets ops [0,n) by their (deduplicated,
// primary-first) replica set, in first-touch order. addrOf maps an op
// index to its address.
func (r *Router) groupByReplicaSet(sc *batchScratch, addrOf func(i int) uint64, n int, forWrite bool) []batchGroup {
	groups := sc.groups[:0]
	var buf [2 * maxReplicas]*nodeState
	for i := 0; i < n; i++ {
		k := r.routeSet(addrOf(i), forWrite, buf[:])
		var key setKey
		for j := 0; j < k; j++ {
			key[j] = buf[j].node.Name
		}
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
	return groups
}

// WriteBatch routes a batch of writes. While a reshard migration is in
// flight the whole batch takes the scalar Write path op by op — that
// path carries the dual-write and dirty-address-tracking semantics the
// replay correctness argument depends on, and migrations are rare and
// short. Otherwise ops are grouped by replica set and each group fans
// out as one sub-batch frame per healthy replica.
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
	groups := r.groupByReplicaSet(sc, func(i int) uint64 { return ops[i].Addr }, len(ops), true)
	for gi := range groups {
		g := &groups[gi]
		subOps := sc.subOps[:0]
		for _, i := range g.idxs {
			// A reshard may begin while this batch is in flight; marking
			// dirty (a no-op outside migrations) keeps the replay from
			// clobbering these addresses in that window.
			r.markDirty(ops[i].Addr)
			subOps = append(subOps, ops[i])
		}
		sc.subOps = subOps
		subRes := append(sc.subWRes[:0], make([]server.BatchWriteResult, len(subOps))...)
		sc.subWRes = subRes
		for ri, st := range g.set {
			if !st.up.Load() {
				continue
			}
			err := r.doNodeCtx(st, trace, server.OpWriteBatch, ops[g.idxs[0]].Addr, func(c *server.TCPClient) error {
				_, err := c.WriteBatchTraced(trace, subOps, subRes)
				return err
			})
			if err != nil {
				continue // doNodeCtx already counted the error and marked health
			}
			accepted := uint64(0)
			for j, i := range g.idxs {
				if subRes[j].Err != nil {
					continue
				}
				accepted++
				if done[i] {
					continue
				}
				done[i] = true
				res[i] = subRes[j]
				if ri > 0 {
					// The primary never accepted this op; a replica did.
					r.failovers.Add(1)
				}
			}
			st.writes.Add(accepted)
		}
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
	r.hop(telemetry.HopRoute, trace, server.OpWriteBatch, "", ops[0].Addr, len(groups), 0, began)
	return nil
}

// ReadBatch routes a batch of reads, one sub-batch frame per distinct
// replica set, walking each set primary-first until every op in the
// group has an answer. Ops no replica answered fall back to scalar
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
	groups := r.groupByReplicaSet(sc, func(i int) uint64 { return addrs[i] }, len(addrs), false)
	for gi := range groups {
		g := &groups[gi]
		subAddrs := sc.subAddrs[:0]
		for _, i := range g.idxs {
			subAddrs = append(subAddrs, addrs[i])
		}
		sc.subAddrs = subAddrs
		subRes := append(sc.subRRes[:0], make([]server.BatchReadResult, len(subAddrs))...)
		sc.subRRes = subRes
		remaining := len(g.idxs)
		for ri, st := range g.set {
			if remaining == 0 {
				break
			}
			if !st.up.Load() {
				continue
			}
			err := r.doNodeCtx(st, trace, server.OpReadBatch, addrs[g.idxs[0]], func(c *server.TCPClient) error {
				_, err := c.ReadBatchTraced(trace, subAddrs, subRes)
				return err
			})
			if err != nil {
				continue
			}
			answered := uint64(0)
			for j, i := range g.idxs {
				if subRes[j].Err != nil {
					continue
				}
				answered++
				if done[i] {
					continue
				}
				done[i] = true
				remaining--
				res[i] = subRes[j]
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
	r.hop(telemetry.HopRoute, trace, server.OpReadBatch, "", addrs[0], len(groups), 0, began)
	return nil
}
