package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/server"
)

// fakeNode is a frame-level stand-in for a node: a server.Handler served
// by server.ServeFrames, whose data ops pass through gate first. A gate
// error fails the op (a batch frame as a whole) with that error's status;
// a nil gate lets every op through. Reads hit with lineFor(addr), so
// replicas always agree. The node counts the request bytes it reads, in
// all and per connection.
type fakeNode struct {
	node     Node
	fs       *server.FrameServer
	draining chan struct{}
	stopOnce sync.Once
	calls    atomic.Int64 // data ops received
	gate     func(call int64, trace uint64) error

	received atomic.Int64 // request bytes read, over every connection
	// resetAfter, when positive, arms the next connection to read a
	// request: it reads that many bytes, then resets instead of
	// answering.
	resetAfter atomic.Int64
	mu         sync.Mutex
	conns      []*fakeConn
}

func startFakeNode(t *testing.T, name string, gate func(call int64, trace uint64) error) *fakeNode {
	t.Helper()
	n := &fakeNode{draining: make(chan struct{}), gate: gate}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.fs = server.ServeFrames(fakeListener{ln, n}, n, n.draining)
	n.node = Node{Name: name, TCPAddr: n.fs.Addr()}
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

// maxConnBytes is the most request bytes the node has read on any one
// connection.
func (n *fakeNode) maxConnBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	most := int64(0)
	for _, c := range n.conns {
		most = max(most, c.read.Load())
	}
	return most
}

type fakeListener struct {
	net.Listener
	n *fakeNode
}

func (l fakeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := &fakeConn{Conn: c, node: l.n}
	l.n.mu.Lock()
	l.n.conns = append(l.n.conns, fc)
	l.n.mu.Unlock()
	return fc, nil
}

// fakeConn is one node-side connection of a fakeNode. Reads and writes
// come from the connection's one serving goroutine.
type fakeConn struct {
	net.Conn
	node  *fakeNode
	read  atomic.Int64
	armed bool  // claimed the node's resetAfter
	left  int64 // bytes an armed connection may still read
}

var errReset = errors.New("fake node: connection reset")

func (c *fakeConn) Read(p []byte) (int, error) {
	if !c.armed {
		if v := c.node.resetAfter.Swap(0); v > 0 {
			c.armed, c.left = true, v
		}
	}
	if c.armed {
		if c.left == 0 {
			return 0, c.reset()
		}
		p = p[:min(int64(len(p)), c.left)]
	}
	n, err := c.Conn.Read(p)
	if c.armed {
		c.left -= int64(n)
	}
	c.read.Add(int64(n))
	c.node.received.Add(int64(n))
	return n, err
}

func (c *fakeConn) Write(p []byte) (int, error) {
	if c.armed && c.left == 0 {
		return 0, c.reset()
	}
	return c.Conn.Write(p)
}

// reset drops the connection with a TCP RST.
func (c *fakeConn) reset() error {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
	return errReset
}

func (n *fakeNode) op(trace uint64) error {
	k := n.calls.Add(1) - 1
	if n.gate == nil {
		return nil
	}
	return n.gate(k, trace)
}

func (n *fakeNode) Write(trace, addr uint64, _ ecc.Line) (server.BatchWriteResult, uint64) {
	return server.BatchWriteResult{Err: n.op(trace), PhysAddr: addr}, trace
}

func (n *fakeNode) Read(trace, addr uint64) (server.BatchReadResult, uint64) {
	return server.BatchReadResult{Err: n.op(trace), Hit: true, Data: lineFor(addr)}, trace
}

func (n *fakeNode) WriteBatch(trace uint64, ops []server.BatchWriteOp, res []server.BatchWriteResult) (uint64, error) {
	if err := n.op(trace); err != nil {
		return 0, err
	}
	for i := range res {
		res[i] = server.BatchWriteResult{PhysAddr: ops[i].Addr}
	}
	return trace, nil
}

func (n *fakeNode) ReadBatch(trace uint64, addrs []uint64, res []server.BatchReadResult) (uint64, error) {
	if err := n.op(trace); err != nil {
		return 0, err
	}
	for i := range res {
		res[i] = server.BatchReadResult{Hit: true, Data: lineFor(addrs[i])}
	}
	return trace, nil
}

func (n *fakeNode) Flush() error                         { return nil }
func (n *fakeNode) Stats() (server.StatsResponse, error) { return server.StatsResponse{}, nil }

// Request frame sizes (internal/server/proto.go).
const (
	writeFrameLen = 1 + 8 + 8 + ecc.LineSize
	readFrameLen  = 1 + 8 + 8
)

func writeBatchFrameLen(ops int) int64 { return 1 + 8 + 2 + int64(ops)*(8+ecc.LineSize) }
func readBatchFrameLen(ops int) int64  { return 1 + 8 + 2 + int64(ops)*8 }

// barrier holds each data op until the fake nodes have read every byte
// of the op's wave, and of the waves before it: a wave's frames must all
// arrive before any of them is answered, so a router that reads a reply
// before it has sent every frame of the wave leaves an op waiting. An op
// still waiting after timeout is counted and fails with
// server.ErrTimeout.
type barrier struct {
	waveBytes int64                    // one wave's request bytes over all nodes
	gen       func(trace uint64) int64 // the op's wave, from 0; nil means 0
	timeout   time.Duration
	timeouts  atomic.Int64

	mu    sync.Mutex
	nodes []*fakeNode // set once the nodes exist, before any request
}

func (b *barrier) setNodes(nodes []*fakeNode) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nodes = nodes
}

func (b *barrier) received() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	got := int64(0)
	for _, n := range b.nodes {
		got += n.received.Load()
	}
	return got
}

func (b *barrier) wait(_ int64, trace uint64) error {
	want := b.waveBytes
	if b.gen != nil {
		want *= b.gen(trace) + 1
	}
	deadline := time.Now().Add(b.timeout)
	for {
		got := b.received()
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			b.timeouts.Add(1)
			return server.ErrTimeout
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// fakeRouter builds an R=2 router over fake nodes n0 and n1, gated by
// gate0 and gate1. The prober stays out of the way.
func fakeRouter(t *testing.T, cfg Config, gate0, gate1 func(int64, uint64) error) (*Router, [2]*fakeNode) {
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
// replica sets of a 2-node R=2 ring, and sends each node two frames.
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

// writeBatch routes one write batch over addrs under trace and returns
// the first per-op error.
func writeBatch(r *Router, trace uint64, addrs []uint64) error {
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
}

// The router sends every frame a request needs before it reads any
// reply. Each node's data ops wait on one barrier that opens only once
// the nodes have read every byte of the request's frames, so a router
// that waits for one reply before sending the next frame times out
// instead. A wave checks out one connection per node, whatever the
// number of frames it sends that node, and makes one attempt per frame.
func TestWaveSendsEveryFrameBeforeReading(t *testing.T) {
	const barrierTimeout = 500 * time.Millisecond // below RequestTimeout (2s)
	cases := []struct {
		name   string
		frames int
		bytes  int64 // the frames' request bytes
		cfg    Config
		run    func(t *testing.T, r *Router, trace uint64) error
	}{
		{"scalar write R=2", 2, 2 * writeFrameLen, Config{}, func(t *testing.T, r *Router, trace uint64) error {
			_, err := r.WriteTraced(trace, 7, lineFor(7))
			return err
		}},
		{"write batch over both replica sets", 4, 4 * writeBatchFrameLen(4), Config{}, func(t *testing.T, r *Router, trace uint64) error {
			return writeBatch(r, trace, bothSets(t, r, 4))
		}},
		{"read batch over both replica sets", 2, 2 * readBatchFrameLen(4), Config{}, func(t *testing.T, r *Router, trace uint64) error {
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
		{"read with read repair", 2, 2 * readFrameLen, Config{ReadRepairEvery: 1}, func(t *testing.T, r *Router, trace uint64) error {
			_, err := r.ReadTraced(trace, 7)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bar := &barrier{waveBytes: tc.bytes, timeout: barrierTimeout}
			r, nodes := fakeRouter(t, tc.cfg, bar.wait, bar.wait)
			bar.setNodes(nodes[:])
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
			if kinds["checkout"] != len(nodes) || kinds["attempt"] != tc.frames {
				t.Fatalf("hops %v: want one checkout per node (%d) and one attempt per frame (%d)", kinds, len(nodes), tc.frames)
			}
		})
	}
}

// Two concurrent batch callers hold one connection per node each while
// their waves are in flight; after the first round the pools serve every
// later round from their idle lists.
func TestWaveFitsDefaultIdlePool(t *testing.T) {
	const callers, rounds = 2, 20
	base := uint64(1) << 40
	// Round i of both callers is wave generation i: every op of it waits
	// until both callers' round-i frames have arrived.
	bar := &barrier{
		waveBytes: callers * 4 * writeBatchFrameLen(4),
		gen:       func(trace uint64) int64 { return int64(trace-base) / callers },
		timeout:   2 * time.Second,
	}
	r, nodes := fakeRouter(t, Config{}, bar.wait, bar.wait)
	bar.setNodes(nodes[:])
	addrs := bothSets(t, r, 4)
	concurrently := func(from int) {
		t.Helper()
		errs := make(chan error, callers)
		for c := 0; c < callers; c++ {
			go func() {
				for i := from; i < from+rounds; i++ {
					if err := writeBatch(r, base+uint64(i*callers+c), addrs); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for i := 0; i < callers; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	concurrently(0) // warm-up
	var warm [2]uint64
	for i, n := range nodes {
		warm[i] = r.state[n.node.Name].pool.Dials()
	}
	concurrently(rounds)
	for i, n := range nodes {
		if d := r.state[n.node.Name].pool.Dials(); d != warm[i] {
			t.Errorf("node %s: pool dialed %d connections after warm-up (had %d)", n.node.Name, d, warm[i])
		}
	}
	if n := bar.timeouts.Load(); n != 0 {
		t.Fatalf("%d node ops timed out at the barrier", n)
	}
}

// A wave sends both of a node's frames on one connection: each node
// answers only once one connection has carried both of its frames, which
// a router that gives every frame a connection of its own never does.
func TestWavePipelinesNodeFramesOnOneConn(t *testing.T) {
	var mu sync.Mutex
	var nodes [2]*fakeNode // set before any request
	bothOnOneConn := func(node int) func(int64, uint64) error {
		return func(int64, uint64) error {
			mu.Lock()
			n := nodes[node]
			mu.Unlock()
			deadline := time.Now().Add(500 * time.Millisecond)
			for n.maxConnBytes() < 2*writeBatchFrameLen(4) {
				if time.Now().After(deadline) {
					return server.ErrTimeout
				}
				time.Sleep(100 * time.Microsecond)
			}
			return nil
		}
	}
	r, made := fakeRouter(t, Config{RetriesPerNode: -1}, bothOnOneConn(0), bothOnOneConn(1))
	mu.Lock()
	nodes = made
	mu.Unlock()
	if err := writeBatch(r, r.NewTraceID(), bothSets(t, r, 4)); err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	for _, n := range nodes {
		if d := r.state[n.node.Name].pool.Dials(); d != 1 {
			t.Errorf("node %s: %d connections dialed, want 1", n.node.Name, d)
		}
	}
}

// A transport error on a shared connection fails attempt 0 of every
// frame not yet read from it: a node that resets after reading the first
// of its two pipelined frames sends both to their retries, one at a time,
// each on a connection of its own.
func TestWaveResetFailsEveryUnreadFrame(t *testing.T) {
	r, nodes := fakeRouter(t, Config{}, nil, nil)
	p := nodes[0]
	p.resetAfter.Store(writeBatchFrameLen(4))
	if err := writeBatch(r, r.NewTraceID(), bothSets(t, r, 4)); err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	pool := r.state[p.node.Name].pool
	if got := p.calls.Load(); got != 3 {
		t.Errorf("n0 served %d frames, want 3 (the first before the reset, then two retries)", got)
	}
	if got := r.retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	// The wave's connection, then one for the retries: the second retry
	// reuses the first's.
	if got := pool.Dials(); got != 2 {
		t.Errorf("n0 pool dials = %d, want 2", got)
	}
	if !r.Healthy(p.node.Name) {
		t.Error("n0 marked down, want up: both retries succeeded")
	}
	if got := r.failovers.Load(); got != 0 {
		t.Errorf("failovers = %d, want 0", got)
	}
	if got := nodes[1].calls.Load(); got != 2 {
		t.Errorf("n1 served %d frames, want 2", got)
	}
}

// A status reply leaves the shared connection clean: after an overloaded
// reply to the first of a node's two frames, the second is read from the
// same connection, which then goes back to the pool.
func TestWaveStatusReplyKeepsConnection(t *testing.T) {
	overloadFirst := func(k int64, _ uint64) error {
		if k == 2 { // the first frame after the warm-up batch's two
			return server.ErrOverloaded
		}
		return nil
	}
	// No retries: a retry would check out a second connection.
	r, nodes := fakeRouter(t, Config{RetriesPerNode: -1}, overloadFirst, nil)
	addrs := bothSets(t, r, 4)
	if err := writeBatch(r, r.NewTraceID(), addrs); err != nil {
		t.Fatal(err) // warms both pools
	}
	p := nodes[0]
	pool := r.state[p.node.Name].pool
	dials0 := pool.Dials()
	trace := r.NewTraceID()
	if err := writeBatch(r, trace, addrs); err != nil {
		t.Fatalf("batch failed: %v", err) // the follower took the first frame's ops
	}
	if got := p.calls.Load(); got != 4 {
		t.Errorf("n0 served %d frames, want 4 (2 warm-up, then both frames of the wave)", got)
	}
	if got := pool.Dials() - dials0; got != 0 {
		t.Errorf("n0 pool dialed %d connections during the wave, want 0", got)
	}
	if got := pool.IdleLen(); got != 1 {
		t.Errorf("n0 pool holds %d idle connections, want 1: the wave's, returned clean", got)
	}
	statuses := map[byte]int{}
	for _, rec := range r.HopRecords() {
		if rec.Trace == trace && rec.Kind == "attempt" && rec.Node == p.node.Name {
			statuses[byte(rec.Status)]++
		}
	}
	if statuses[server.StatusOverloaded] != 1 || statuses[server.StatusOK] != 1 {
		t.Errorf("n0 attempt statuses %v, want one overloaded and one ok", statuses)
	}
}

// The per-node retry budget, pinned on a routed write: a primary that
// answers statuses on cue must see exactly the attempts, retries,
// mark-downs and failovers the attempt loop has always produced. The
// follower always accepts.
func TestWaveRetryBudgetPinned(t *testing.T) {
	overloadedOnce := func(k int64, _ uint64) error {
		if k == 0 {
			return server.ErrOverloaded
		}
		return nil
	}
	always := func(err error) func(int64, uint64) error {
		return func(int64, uint64) error { return err }
	}
	cases := []struct {
		name      string
		retries   int // RetriesPerNode
		gate      func(int64, uint64) error
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
			gate := func(k int64, trace uint64) error {
				if k == 0 || tc.gate == nil {
					return nil
				}
				return tc.gate(k-1, trace)
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
