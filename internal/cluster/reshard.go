package cluster

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/trace"
)

// ReshardReport summarizes one completed reshard cutover.
type ReshardReport struct {
	FromEpoch uint64 `json:"from_epoch"`
	ToEpoch   uint64 `json:"to_epoch"`
	// Scanned is the address-space size examined; Moved counts snapshot
	// records replayed onto new owners; SkippedDirty counts records
	// dropped because a client write superseded them mid-migration;
	// Unreadable counts moving addresses whose old replicas were all
	// unreachable (their data could not be migrated).
	Scanned      uint64 `json:"scanned"`
	Moved        uint64 `json:"moved"`
	SkippedDirty uint64 `json:"skipped_dirty"`
	Unreadable   uint64 `json:"unreadable"`
	// PerNode counts records replayed per destination node.
	PerNode    map[string]uint64 `json:"per_node"`
	DurationMs float64           `json:"duration_ms"`
}

// Reshard migrates the cluster onto a new node set and flips the ring
// epoch, while the router keeps serving:
//
//  1. the next ring is published — client writes now dual-write to their
//     replicas under both rings and mark their address dirty;
//  2. snapshot: every address whose replica set gains a node is read
//     from its current owners into a shard.Replay-compatible
//     trace.Record stream per destination;
//  3. replay: each destination's stream is written onto it, skipping
//     addresses a concurrent client write already delivered (the replay
//     holds the migration lock across each copy write, and writers mark
//     dirty under the same lock before issuing, so a stale snapshot can
//     never overwrite a newer client write);
//  4. cutover: the ring pointer flips to the new epoch, dual-writes
//     stop, and nodes that left the ring have their pools closed.
//
// space bounds the scanned logical address space (the same bound the
// workload uses, e.g. esdload -space). Reshards serialize; the router
// stays fully available throughout.
func (r *Router) Reshard(newNodes []Node, space uint64) (*ReshardReport, error) {
	r.reshardMu.Lock()
	defer r.reshardMu.Unlock()
	start := time.Now()

	cur := r.Ring()
	next, err := NewRing(newNodes, cur.VNodes(), cur.Epoch()+1)
	if err != nil {
		return nil, err
	}
	rep := &ReshardReport{
		FromEpoch: cur.Epoch(),
		ToEpoch:   next.Epoch(),
		Scanned:   space,
		PerNode:   make(map[string]uint64),
	}
	r.logf("cluster: reshard epoch %d -> %d: %d -> %d nodes, scanning %d addresses",
		rep.FromEpoch, rep.ToEpoch, len(cur.Nodes()), len(next.Nodes()), space)

	// Phase 1: publish the next ring (dual-writes + dirty tracking on).
	// The dirty set exists before the next ring is visible, so every
	// writer that dual-writes also marks.
	r.migMu.Lock()
	r.migDirty = make(map[uint64]struct{})
	r.migMu.Unlock()
	r.mu.Lock()
	for _, n := range next.Nodes() {
		r.addState(n)
	}
	r.next = next
	r.mu.Unlock()

	// Phase 2: snapshot moving ranges into per-destination trace streams.
	streams := r.snapshotMoved(cur, next, space, rep)

	// Phase 3: replay each stream onto its new owner.
	for name, recs := range streams {
		r.mu.RLock()
		st := r.state[name]
		r.mu.RUnlock()
		if st == nil {
			continue
		}
		moved, skipped := r.replayOnto(st, trace.NewSliceStream(recs))
		rep.Moved += moved
		rep.SkippedDirty += skipped
		rep.PerNode[name] = moved
	}

	// Phase 4: cutover — flip the epoch, stop dual-writes, drop departed
	// nodes.
	r.mu.Lock()
	r.ring = next
	r.next = nil
	for name, st := range r.state {
		if _, ok := next.NodeByName(name); !ok {
			st.pool.Close()
			delete(r.state, name)
		}
	}
	r.mu.Unlock()
	r.migMu.Lock()
	r.migDirty = nil
	r.migMu.Unlock()

	rep.DurationMs = float64(time.Since(start)) / float64(time.Millisecond)
	r.lastReshard.Store(rep)
	r.logf("cluster: reshard cutover to epoch %d: moved=%d skipped_dirty=%d unreadable=%d in %.1fms",
		rep.ToEpoch, rep.Moved, rep.SkippedDirty, rep.Unreadable, rep.DurationMs)
	return rep, nil
}

// LastReshard returns the most recent reshard report (nil if none ran).
func (r *Router) LastReshard() *ReshardReport { return r.lastReshard.Load() }

// snapshotMoved scans the address space and builds, for every node that
// gains an address under the next ring, a trace.Record stream of that
// address's current content (read from the old owners). The records are
// exactly what shard.Replay consumes — OpWrite with the line content —
// so a stream could equally be replayed into an in-process engine.
func (r *Router) snapshotMoved(cur, next *Ring, space uint64, rep *ReshardReport) map[string][]trace.Record {
	streams := make(map[string][]trace.Record)
	repl := r.cfg.Replication
	var oldIdx, newIdx [maxReplicas]int
	for addr := uint64(0); addr < space; addr++ {
		no := cur.ReplicasInto(addr, repl, oldIdx[:])
		nn := next.ReplicasInto(addr, repl, newIdx[:])
		var dests []string
		for i := 0; i < nn; i++ {
			name := next.Node(newIdx[i]).Name
			held := false
			for j := 0; j < no; j++ {
				if cur.Node(oldIdx[j]).Name == name {
					held = true
					break
				}
			}
			if !held {
				dests = append(dests, name)
			}
		}
		if len(dests) == 0 {
			continue
		}
		resp, err := r.readFromOld(cur, oldIdx[:no], addr)
		if err != nil {
			rep.Unreadable++
			continue
		}
		if !resp.Hit {
			continue // never written; nothing to move
		}
		var rec trace.Record
		rec.Op = trace.OpWrite
		rec.Addr = addr
		rec.Data = resp.Data
		for _, d := range dests {
			streams[d] = append(streams[d], rec)
		}
	}
	return streams
}

// readFromOld reads addr from the first healthy old replica.
func (r *Router) readFromOld(cur *Ring, replicas []int, addr uint64) (server.BatchReadResult, error) {
	var lastErr error
	for _, ni := range replicas {
		name := cur.Node(ni).Name
		r.mu.RLock()
		st := r.state[name]
		r.mu.RUnlock()
		if st == nil || !st.up.Load() {
			continue
		}
		resp, err := r.readNode(st, 0, addr)
		if err != nil {
			lastErr = err
			continue
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = ErrNoReplica
	}
	return server.BatchReadResult{}, lastErr
}

// replayOnto writes a snapshot stream onto one destination node. Each
// record is applied under the migration lock after re-checking the dirty
// set, so a concurrent client write (which marks dirty under the same
// lock before issuing) either arrives after the copy or causes the copy
// to be skipped — never the lost-update interleaving.
func (r *Router) replayOnto(st *nodeState, stream trace.Stream) (moved, skipped uint64) {
	for {
		rec, err := stream.Next()
		if errors.Is(err, io.EOF) {
			return moved, skipped
		}
		if err != nil {
			r.logf("cluster: reshard stream error: %v", err)
			return moved, skipped
		}
		line := rec.Data
		r.migMu.Lock()
		if _, dirty := r.migDirty[rec.Addr]; dirty {
			skipped++
			r.migMu.Unlock()
			continue
		}
		werr := r.doNode(st, func(c *server.TCPClient) error {
			_, err := c.Write(rec.Addr, line)
			return err
		})
		r.migMu.Unlock()
		if werr != nil {
			r.logf("cluster: reshard replay addr=%d onto %s failed: %v", rec.Addr, st.node.Name, werr)
			continue
		}
		moved++
	}
}

// reshardNodes applies an add/remove delta to the current ring
// membership, for the admin endpoint: names in remove leave, nodes in
// add join.
func (r *Router) reshardNodes(add []Node, remove []string) ([]Node, error) {
	cur := r.Ring().Nodes()
	drop := make(map[string]bool, len(remove))
	for _, name := range remove {
		drop[name] = true
	}
	var out []Node
	for _, n := range cur {
		if !drop[n.Name] {
			out = append(out, n)
		} else {
			delete(drop, n.Name)
		}
	}
	for name := range drop {
		return nil, fmt.Errorf("cluster: cannot remove unknown node %q", name)
	}
	for _, n := range add {
		out = append(out, n.withDefaults())
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: reshard would empty the ring")
	}
	return out, nil
}
