package check

import (
	"context"
	"fmt"
	"time"

	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// ClusterConfig parameterizes one routed differential run: the oracle
// compares against a consistent-hash Router fronting N real in-process
// esdserve nodes over TCP, with a node kill and a reshard cutover
// injected at fixed op indices so the whole schedule replays from the
// seed.
type ClusterConfig struct {
	// Gen shapes the workload (DefaultGen if zero Ops). Crash ops have no
	// cluster surface (the nodes are remote) and are skipped — a no-op on
	// every engine, so determinism is preserved.
	Gen GenConfig
	// Seed drives the generator.
	Seed uint64
	// Scheme is the backend scheme (default "esd").
	Scheme string
	// Nodes is the initial backend count (default 3).
	Nodes int
	// Replication is the router's replica factor (default 2; must be >= 2
	// when KillAt is enabled, or the kill genuinely loses data and the
	// checker would report that loss as a divergence).
	Replication int
	// KillAt shuts one node down (gracefully, as SIGTERM would) after op
	// index KillAt. 0 picks 70% of Ops; < 0 disables.
	KillAt int
	// ReshardAt grows the ring by one node after op index ReshardAt,
	// migrating live. 0 picks 40% of Ops; < 0 disables.
	ReshardAt int
	// Upto stops after this many ops (0 = full run), replaying a prefix.
	Upto int
	// MaxViolations stops the run early (default 10).
	MaxViolations int
	// BatchFraction, in (0,1], routes that fraction of consecutive-write
	// and consecutive-read runs through the router's batched frames
	// (Router.WriteBatch and Router.ReadBatch — one wire round trip per
	// touched replica set) instead of scalar ops, drawn from a
	// seed-derived RNG so runs replay exactly. Batches buffered across the
	// reshard/kill injection points exercise batched frames
	// mid-migration. 0 disables (the default).
	BatchFraction float64
	// Progress, when non-nil, is called every few thousand ops.
	Progress func(done, total int)
}

func (c *ClusterConfig) withDefaults() ClusterConfig {
	out := *c
	if out.Gen.Ops == 0 {
		out.Gen = DefaultGen()
	}
	if out.Scheme == "" {
		out.Scheme = "esd"
	}
	if out.Nodes <= 0 {
		out.Nodes = 3
	}
	if out.Replication <= 0 {
		out.Replication = 2
	}
	if out.KillAt == 0 {
		out.KillAt = out.Gen.Ops * 7 / 10
	}
	if out.ReshardAt == 0 {
		out.ReshardAt = out.Gen.Ops * 4 / 10
	}
	if out.MaxViolations == 0 {
		out.MaxViolations = 10
	}
	return out
}

// clusterNode is one in-process backend under the checker.
type clusterNode struct {
	name   string
	eng    *shard.Engine
	srv    *server.Server
	killed bool
}

func (n *clusterNode) kill() {
	n.killed = true
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	_ = n.eng.Close()
}

func bootClusterNode(sys config.Config, scheme, name string) (*clusterNode, error) {
	eng, err := shard.New(sys, scheme, shard.Options{Shards: 2})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(eng, server.Config{Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"})
	if err != nil {
		_ = eng.Close()
		return nil, err
	}
	return &clusterNode{name: name, eng: eng, srv: srv}, nil
}

// RunCluster executes one routed differential pass: the generated op
// stream is applied to the map oracle and, over real TCP, to a Router
// fronting Nodes backends, with a mid-stream reshard (adding one node)
// and a mid-stream node kill at deterministic op indices. Reads must
// match the oracle exactly through every phase — before, during and
// after both fault injections. After the final sweep the invariant
// audits run on every live node's engine, the standby included.
func RunCluster(cfg ClusterConfig) (*Result, error) {
	rc := cfg.withDefaults()
	if rc.KillAt >= 0 && rc.Replication < 2 {
		return nil, fmt.Errorf("check: cluster kill injection needs replication >= 2 (got %d)", rc.Replication)
	}
	sys := checkConfig()

	var nodes []*clusterNode
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()
	for i := 0; i < rc.Nodes; i++ {
		n, err := bootClusterNode(sys, rc.Scheme, fmt.Sprintf("node%d", i))
		if err != nil {
			return nil, fmt.Errorf("check: cluster node %d: %w", i, err)
		}
		nodes = append(nodes, n)
	}
	// The standby joins the ring at ReshardAt.
	var standby *clusterNode
	if rc.ReshardAt >= 0 {
		n, err := bootClusterNode(sys, rc.Scheme, "standby")
		if err != nil {
			return nil, fmt.Errorf("check: cluster standby: %w", err)
		}
		nodes = append(nodes, n)
		standby = n
	}

	var members []cluster.Node
	for _, n := range nodes {
		if n == standby {
			continue
		}
		members = append(members, cluster.Node{
			Name:     n.name,
			TCPAddr:  n.srv.TCPAddr(),
			HTTPAddr: n.srv.Addr(),
		})
	}
	router, err := cluster.NewRouter(cluster.Config{
		Nodes:         members,
		Replication:   rc.Replication,
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, fmt.Errorf("check: cluster router: %w", err)
	}
	defer router.Close()

	label := fmt.Sprintf("cluster/%s/nodes=%d,r=%d", rc.Scheme, rc.Nodes, rc.Replication)
	res := &Result{Engines: []string{label}}
	fail := func(op int, msg string) {
		res.Violations = append(res.Violations, Violation{Engine: label, Op: op, Msg: msg})
	}

	oracle := NewOracle()
	gen := NewGen(rc.Gen, rc.Seed)
	limit := rc.Gen.Ops
	if rc.Upto > 0 && rc.Upto < limit {
		limit = rc.Upto
	}

	// Batched-frame buffering, mirroring Run. The buffer deliberately
	// survives the fault-injection points so batches land mid-reshard and
	// mid-kill.
	b := newBatcher(rc.BatchFraction, rc.Seed)
	var batchOps []server.BatchWriteOp
	var batchRes []server.BatchWriteResult
	b.flushWrites = func(items []batchItem, batched bool) {
		if !batched {
			for _, it := range items {
				if _, err := router.Write(it.addr, it.line); err != nil {
					fail(it.op, fmt.Sprintf("write addr=%d: %v", it.addr, err))
				}
			}
			return
		}
		batchOps = batchOps[:0]
		for _, it := range items {
			batchOps = append(batchOps, server.BatchWriteOp{Addr: it.addr, Line: it.line})
		}
		batchRes = append(batchRes[:0], make([]server.BatchWriteResult, len(batchOps))...)
		if err := router.WriteBatch(batchOps, batchRes); err != nil {
			fail(items[0].op, fmt.Sprintf("batch write: %v", err))
			return
		}
		for j, it := range items {
			if batchRes[j].Err != nil {
				fail(it.op, fmt.Sprintf("batch write addr=%d: %v", it.addr, batchRes[j].Err))
			}
		}
	}
	var readAddrs []uint64
	var readRes []server.BatchReadResult
	b.flushReads = func(items []readItem, batched bool) {
		if !batched {
			for _, it := range items {
				if msg := it.check(routerRead(router, it.addr)); msg != "" {
					fail(it.op, msg)
				}
			}
			return
		}
		readAddrs = readAddrs[:0]
		for _, it := range items {
			readAddrs = append(readAddrs, it.addr)
		}
		readRes = append(readRes[:0], make([]server.BatchReadResult, len(readAddrs))...)
		if err := router.ReadBatch(readAddrs, readRes); err != nil {
			fail(items[0].op, fmt.Sprintf("batch read: %v", err))
			return
		}
		for j, it := range items {
			got := readGot{line: readRes[j].Data, hit: readRes[j].Hit, err: readRes[j].Err}
			if msg := it.check(got); msg != "" {
				fail(it.op, msg)
			}
		}
	}

	for i := 0; i < limit; i++ {
		// Fault injections fire at fixed indices so `esdcheck -cluster
		// -seed N -upto M` replays the identical schedule.
		if rc.ReshardAt >= 0 && i == rc.ReshardAt {
			grown := append(append([]cluster.Node{}, router.Ring().Nodes()...), cluster.Node{
				Name:     standby.name,
				TCPAddr:  standby.srv.TCPAddr(),
				HTTPAddr: standby.srv.Addr(),
			})
			rep, err := router.Reshard(grown, rc.Gen.Addrs)
			if err != nil {
				fail(i, fmt.Sprintf("reshard: %v", err))
				return res, nil
			}
			if rep.Unreadable > 0 {
				fail(i, fmt.Sprintf("reshard left %d addresses unreadable with all nodes up", rep.Unreadable))
			}
		}
		if rc.KillAt >= 0 && i == rc.KillAt {
			nodes[1].kill()
		}

		op, ok := gen.Next()
		if !ok {
			break
		}
		res.Ops++
		switch op.Kind {
		case OpWrite:
			res.Writes++
			oracle.Write(op.Addr, op.Line)
			b.write(batchItem{op: i, addr: op.Addr, line: op.Line})
		case OpRead:
			res.Reads++
			want, wantHit := oracle.Read(op.Addr)
			b.read(readItem{op: i, addr: op.Addr, want: want, wantHit: wantHit})
		case OpCrash:
			res.Crashes++ // no cluster surface; skipped
		}
		if len(res.Violations) >= rc.MaxViolations {
			return res, nil
		}
		if rc.Progress != nil && (i+1)%10000 == 0 {
			rc.Progress(i+1, limit)
		}
	}

	// Final sweep: every address the oracle holds must read back through
	// the post-fault ring.
	b.flush()
	lastOp := res.Ops - 1
	for addr := uint64(0); addr < rc.Gen.Addrs; addr++ {
		want, wantHit := oracle.Read(addr)
		if !wantHit {
			continue
		}
		resp, err := router.Read(addr)
		switch {
		case err != nil:
			fail(lastOp, fmt.Sprintf("final sweep addr=%d: %v", addr, err))
		case !resp.Hit:
			fail(lastOp, fmt.Sprintf("final sweep addr=%d: written line lost", addr))
		case string(resp.Data) != string(want[:]):
			fail(lastOp, fmt.Sprintf("final sweep addr=%d: data diverges from oracle", addr))
		}
		if len(res.Violations) >= rc.MaxViolations {
			return res, nil
		}
	}
	for _, n := range nodes {
		if n.killed {
			continue
		}
		for _, msg := range auditShards(n.eng, make([]counterAudit, n.eng.NumShards())) {
			fail(lastOp, n.name+": "+msg)
		}
	}
	return res, nil
}

// routerRead is one scalar routed read as a readGot.
func routerRead(router *cluster.Router, addr uint64) readGot {
	resp, err := router.Read(addr)
	got := readGot{hit: resp.Hit, err: err}
	copy(got.line[:], resp.Data)
	return got
}
