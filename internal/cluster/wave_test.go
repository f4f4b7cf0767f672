package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/server"
)

// fakeNode is a frame-level stand-in for a node: a server.Handler served
// by server.ListenFrames, whose data ops pass through gate first. A gate
// error fails the op with that error's status; a nil gate lets every op
// through. Reads hit with lineFor(addr), so replicas always agree.
type fakeNode struct {
	node     Node
	fs       *server.FrameServer
	draining chan struct{}
	stopOnce sync.Once
	calls    atomic.Int64 // data ops received
	gate     func(call int64) error
}

func startFakeNode(t *testing.T, name string, gate func(call int64) error) *fakeNode {
	t.Helper()
	n := &fakeNode{draining: make(chan struct{}), gate: gate}
	fs, err := server.ListenFrames("127.0.0.1:0", n, n.draining)
	if err != nil {
		t.Fatal(err)
	}
	n.fs = fs
	n.node = Node{Name: name, TCPAddr: fs.Addr()}
	t.Cleanup(n.stop)
	return n
}

// stop closes the listener and every connection (idle ones within the
// frame server's drain poll).
func (n *fakeNode) stop() {
	n.stopOnce.Do(func() {
		close(n.draining)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = n.fs.Shutdown(ctx)
	})
}

func (n *fakeNode) op() error {
	k := n.calls.Add(1) - 1
	if n.gate == nil {
		return nil
	}
	return n.gate(k)
}

func (n *fakeNode) Write(trace, addr uint64, _ ecc.Line) (server.BatchWriteResult, uint64) {
	return server.BatchWriteResult{Err: n.op(), PhysAddr: addr}, trace
}

func (n *fakeNode) Read(trace, addr uint64) (server.BatchReadResult, uint64) {
	return server.BatchReadResult{Err: n.op(), Hit: true, Data: lineFor(addr)}, trace
}

func (n *fakeNode) WriteBatch(trace uint64, ops []server.BatchWriteOp, res []server.BatchWriteResult) (uint64, error) {
	err := n.op()
	for i := range res {
		res[i] = server.BatchWriteResult{Err: err, PhysAddr: ops[i].Addr}
	}
	return trace, nil
}

func (n *fakeNode) ReadBatch(trace uint64, addrs []uint64, res []server.BatchReadResult) (uint64, error) {
	err := n.op()
	for i := range res {
		res[i] = server.BatchReadResult{Err: err, Hit: true, Data: lineFor(addrs[i])}
	}
	return trace, nil
}

func (n *fakeNode) Flush() error                         { return nil }
func (n *fakeNode) Stats() (server.StatsResponse, error) { return server.StatsResponse{}, nil }

// barrier holds every op until n ops wait at once, then lets that
// generation through together. An op still waiting after timeout leaves
// its generation, is counted, and fails with server.ErrTimeout.
type barrier struct {
	n        int
	timeout  time.Duration
	mu       sync.Mutex
	waiting  int
	open     chan struct{}
	timeouts atomic.Int64
}

func newBarrier(n int, timeout time.Duration) *barrier {
	return &barrier{n: n, timeout: timeout, open: make(chan struct{})}
}

func (b *barrier) wait(int64) error {
	b.mu.Lock()
	gate := b.open
	if b.waiting++; b.waiting == b.n {
		close(gate)
		b.open, b.waiting = make(chan struct{}), 0
	}
	b.mu.Unlock()
	timer := time.NewTimer(b.timeout)
	defer timer.Stop()
	select {
	case <-gate:
		return nil
	case <-timer.C:
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-gate: // opened while the timer fired
		return nil
	default:
	}
	b.waiting--
	b.timeouts.Add(1)
	return server.ErrTimeout
}

// fakeRouter builds an R=2 router over fake nodes n0 and n1, gated by
// gate0 and gate1. The prober stays out of the way.
func fakeRouter(t *testing.T, cfg Config, gate0, gate1 func(int64) error) (*Router, [2]*fakeNode) {
	t.Helper()
	nodes := [2]*fakeNode{startFakeNode(t, "n0", gate0), startFakeNode(t, "n1", gate1)}
	cfg.Nodes = []Node{nodes[0].node, nodes[1].node}
	cfg.Replication = 2
	cfg.ProbeInterval = time.Hour
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, nodes
}

// primaryOf returns the first address at or above from whose primary
// replica is the named node.
func primaryOf(t *testing.T, r *Router, name string, from uint64) uint64 {
	t.Helper()
	var idx [2]int
	ring := r.Ring()
	for a := from; a < from+1024; a++ {
		ring.ReplicasInto(a, 2, idx[:])
		if ring.Node(idx[0]).Name == name {
			return a
		}
	}
	t.Fatalf("no address owned by %s", name)
	return 0
}

// bothSets returns 2k addresses, k whose replica set is primary-first
// (n0, n1) and k whose set is (n1, n0): a batch over them spans both
// replica sets of a 2-node R=2 ring.
func bothSets(t *testing.T, r *Router, k int) []uint64 {
	t.Helper()
	var out []uint64
	for _, name := range []string{"n0", "n1"} {
		a := uint64(0)
		for i := 0; i < k; i++ {
			a = primaryOf(t, r, name, a)
			out = append(out, a)
			a++
		}
	}
	return out
}

// The router sends every frame a request needs before it reads any
// reply. Each node's data ops wait on one barrier that opens only once
// every frame of the request has arrived, so a router that waits for one
// reply before sending the next frame times out instead.
func TestWaveSendsEveryFrameBeforeReading(t *testing.T) {
	const barrierTimeout = 500 * time.Millisecond // below RequestTimeout (2s)
	cases := []struct {
		name   string
		frames int
		cfg    Config
		run    func(t *testing.T, r *Router, trace uint64) error
	}{
		{"scalar write R=2", 2, Config{}, func(t *testing.T, r *Router, trace uint64) error {
			_, err := r.WriteTraced(trace, 7, lineFor(7))
			return err
		}},
		{"write batch over both replica sets", 4, Config{}, func(t *testing.T, r *Router, trace uint64) error {
			addrs := bothSets(t, r, 4)
			ops := make([]server.BatchWriteOp, len(addrs))
			for i, a := range addrs {
				ops[i] = server.BatchWriteOp{Addr: a, Line: lineFor(a)}
			}
			res := make([]server.BatchWriteResult, len(ops))
			if err := r.WriteBatchTraced(trace, ops, res); err != nil {
				return err
			}
			for i := range res {
				if res[i].Err != nil {
					return res[i].Err
				}
			}
			return nil
		}},
		{"read batch over both replica sets", 2, Config{}, func(t *testing.T, r *Router, trace uint64) error {
			addrs := bothSets(t, r, 4)
			res := make([]server.BatchReadResult, len(addrs))
			if err := r.ReadBatchTraced(trace, addrs, res); err != nil {
				return err
			}
			for i := range res {
				if res[i].Err != nil {
					return res[i].Err
				}
			}
			return nil
		}},
		{"read with read repair", 2, Config{ReadRepairEvery: 1}, func(t *testing.T, r *Router, trace uint64) error {
			_, err := r.ReadTraced(trace, 7)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bar := newBarrier(tc.frames, barrierTimeout)
			r, _ := fakeRouter(t, tc.cfg, bar.wait, bar.wait)
			trace := r.NewTraceID()
			began := time.Now()
			if err := tc.run(t, r, trace); err != nil {
				t.Fatalf("request failed: %v", err)
			}
			if took := time.Since(began); took >= barrierTimeout {
				t.Fatalf("request took %v, past the barrier timeout", took)
			}
			if n := bar.timeouts.Load(); n != 0 {
				t.Fatalf("%d node ops timed out at the barrier: frames were not in flight together", n)
			}
			kinds := hopKinds(r.HopRecords(), trace)
			if kinds["checkout"] != tc.frames || kinds["attempt"] != tc.frames {
				t.Fatalf("hops %v: want exactly one checkout and one attempt per frame (%d frames)", kinds, tc.frames)
			}
		})
	}
}

// Two concurrent batch callers hold 2 connections per node each while
// their waves are in flight; after the first round the pools serve every
// later round from their idle lists.
func TestWaveFitsDefaultIdlePool(t *testing.T) {
	const callers, rounds = 2, 20
	bar := newBarrier(callers*4, 2*time.Second) // both callers' waves at once
	r, nodes := fakeRouter(t, Config{}, bar.wait, bar.wait)
	addrs := bothSets(t, r, 4)
	batch := func() error {
		ops := make([]server.BatchWriteOp, len(addrs))
		res := make([]server.BatchWriteResult, len(addrs))
		for i, a := range addrs {
			ops[i] = server.BatchWriteOp{Addr: a, Line: lineFor(a)}
		}
		for i := 0; i < rounds; i++ {
			if err := r.WriteBatch(ops, res); err != nil {
				return err
			}
			for j := range res {
				if res[j].Err != nil {
					return res[j].Err
				}
			}
		}
		return nil
	}
	concurrently := func() {
		t.Helper()
		errs := make(chan error, callers)
		for i := 0; i < callers; i++ {
			go func() { errs <- batch() }()
		}
		for i := 0; i < callers; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	concurrently() // warm-up
	var warm [2]uint64
	for i, n := range nodes {
		warm[i] = r.state[n.node.Name].pool.Dials()
	}
	concurrently()
	for i, n := range nodes {
		if d := r.state[n.node.Name].pool.Dials(); d != warm[i] {
			t.Errorf("node %s: pool dialed %d connections after warm-up (had %d)", n.node.Name, d, warm[i])
		}
	}
	if n := bar.timeouts.Load(); n != 0 {
		t.Fatalf("%d node ops timed out at the barrier", n)
	}
}

// The per-node retry budget, pinned on a routed write: a primary that
// answers statuses on cue must see exactly the attempts, retries,
// mark-downs and failovers the attempt loop has always produced. The
// follower always accepts.
func TestWaveRetryBudgetPinned(t *testing.T) {
	overloadedOnce := func(k int64) error {
		if k == 0 {
			return server.ErrOverloaded
		}
		return nil
	}
	always := func(err error) func(int64) error { return func(int64) error { return err } }
	cases := []struct {
		name      string
		retries   int // RetriesPerNode
		gate      func(int64) error
		goneFirst bool // shut the primary down after warming its pool
		attempts  int64
		retried   uint64
		dials     uint64 // pool dials during the write
		down      bool
		failovers uint64
	}{
		{name: "overloaded then ok", retries: 1, gate: overloadedOnce, attempts: 2, retried: 1},
		{name: "always overloaded", retries: 1, gate: always(server.ErrOverloaded), attempts: 2, retried: 1, down: true, failovers: 1},
		{name: "always overloaded, 3 retries", retries: 3, gate: always(server.ErrOverloaded), attempts: 4, retried: 3, down: true, failovers: 1},
		{name: "closing", retries: 1, gate: always(server.ErrClosing), attempts: 1, down: true, failovers: 1},
		{name: "listener gone", retries: 1, goneFirst: true, retried: 1, dials: 1, down: true, failovers: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The primary's first op is the warm-up write; the script
			// starts at its second.
			gate := func(k int64) error {
				if k == 0 || tc.gate == nil {
					return nil
				}
				return tc.gate(k - 1)
			}
			r, nodes := fakeRouter(t, Config{RetriesPerNode: tc.retries}, gate, nil)
			p := nodes[0]
			addr := primaryOf(t, r, p.node.Name, 0)
			if _, err := r.Write(addr, lineFor(addr)); err != nil {
				t.Fatal(err) // warms both pools
			}
			if tc.goneFirst {
				p.stop()
			}
			p.calls.Store(1)
			pool := r.state[p.node.Name].pool
			dials0, retries0, failovers0 := pool.Dials(), r.retries.Load(), r.failovers.Load()

			if _, err := r.Write(addr, lineFor(addr+1)); err != nil {
				t.Fatalf("write failed: %v", err)
			}
			if got := p.calls.Load() - 1; got != tc.attempts {
				t.Errorf("primary saw %d attempts, want %d", got, tc.attempts)
			}
			if got := r.retries.Load() - retries0; got != tc.retried {
				t.Errorf("retries +%d, want +%d", got, tc.retried)
			}
			if got := pool.Dials() - dials0; got != tc.dials {
				t.Errorf("primary pool dials +%d, want +%d", got, tc.dials)
			}
			if got := !r.Healthy(p.node.Name); got != tc.down {
				t.Errorf("primary marked down = %v, want %v", got, tc.down)
			}
			if got := r.failovers.Load() - failovers0; got != tc.failovers {
				t.Errorf("failovers +%d, want +%d", got, tc.failovers)
			}
			if got := nodes[1].calls.Load(); got != 2 {
				t.Errorf("follower saw %d writes, want 2 (warm-up + this write)", got)
			}
		})
	}
}
