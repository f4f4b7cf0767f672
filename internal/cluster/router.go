package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/telemetry"
)

// ErrNoReplica is returned when every candidate node for an address was
// down or exhausted its retry budget. It is server.ErrUnavailable, so the
// TCP front answers StatusUnavailable and a client of the front sees the
// same error an in-process router caller does.
var ErrNoReplica = server.ErrUnavailable

// maxReplicas bounds the replication factor (stack buffers on the
// routing path are sized by it).
const maxReplicas = 4

// Config parameterizes a Router.
type Config struct {
	// Nodes is the initial backend set.
	Nodes []Node
	// VNodes is the virtual-point count per node (DefaultVNodes when 0).
	VNodes int
	// Replication is the number of distinct nodes each address is written
	// to (1 = no replication, 2 = primary + follower; max 4). With R>=2 a
	// single node loss is invisible to clients: reads fail over to the
	// follower within the retry budget.
	Replication int
	// RetriesPerNode is how many extra attempts (fresh connection each)
	// one node gets before the router fails over to the next replica
	// (default 1).
	RetriesPerNode int
	// RequestTimeout bounds each backend attempt's send, and then its
	// wait for the reply from the moment the router reads it (default
	// 2s).
	RequestTimeout time.Duration
	// HedgeAfter, when positive and Replication >= 2, fires a hedged read
	// at the follower when the primary has not answered within this
	// duration; the first response wins. Writes are never hedged (they
	// already go to every replica).
	HedgeAfter time.Duration
	// ReadRepairEvery samples every Nth read for replica divergence when
	// Replication >= 2: both replicas are read and, when they disagree,
	// the primary's copy is written back over the diverging follower
	// (default 64; 0 disables).
	ReadRepairEvery int
	// ProbeInterval is the health-probe period (default 1s; the prober
	// GETs each node's /readyz, falling back to TCP dial probes for nodes
	// without an HTTP address, and waits up to 1s for each answer
	// whatever the period).
	ProbeInterval time.Duration
	// PoolMaxIdle caps each node's idle-connection pool (default 8).
	PoolMaxIdle int
	// PoolIdleTimeout reaps pooled connections idle this long (default 30s).
	PoolIdleTimeout time.Duration
	// Log receives router event lines (nil discards).
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.Replication > maxReplicas {
		c.Replication = maxReplicas
	}
	if c.RetriesPerNode < 0 {
		c.RetriesPerNode = 0
	} else if c.RetriesPerNode == 0 {
		c.RetriesPerNode = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.ReadRepairEvery == 0 {
		c.ReadRepairEvery = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	return c
}

// nodeState is the router's live view of one backend.
type nodeState struct {
	node Node
	pool *server.Pool
	up   atomic.Bool

	writes    atomic.Uint64
	reads     atomic.Uint64
	errs      atomic.Uint64
	probeErrs atomic.Uint64
}

// Router consistent-hashes addresses over backend nodes and forwards
// requests with retries, failover, optional replication and hedging. It
// is safe for concurrent use; it holds no request state beyond connection
// pools and health flags.
type Router struct {
	cfg Config

	mu    sync.RWMutex          // guards ring, nextRing, states membership
	ring  *Ring                 // current routing epoch
	next  *Ring                 // non-nil while a reshard is migrating
	state map[string]*nodeState // by node name; nodes are never removed mid-flight, only dropped after a reshard

	// Migration write-tracking: while next != nil, client writes mark
	// their address dirty (under migMu) before issuing, and the reshard
	// replay skips dirty addresses while holding migMu across its copy
	// write — see reshard.go for the ordering argument.
	migMu    sync.Mutex
	migDirty map[uint64]struct{}

	reshardMu   sync.Mutex // serializes reshards
	lastReshard atomic.Pointer[ReshardReport]

	retries   atomic.Uint64
	failovers atomic.Uint64
	hedges    atomic.Uint64
	repairs   atomic.Uint64
	readSeq   atomic.Uint64

	// Distributed-tracing state: the per-hop latency set, the router
	// flight recorder, and the fleet trace ID source (traceBase +
	// traceSeq). See trace.go.
	hops      *telemetry.LatencySet
	flight    *telemetry.FlightRecorder
	traceBase uint64
	traceSeq  atomic.Uint64

	probeStop chan struct{}
	probeDone chan struct{}
}

// NewRouter builds a router over cfg.Nodes at ring epoch 1 and starts its
// health prober. Nodes start healthy ("innocent until probed guilty") so
// traffic flows before the first probe completes.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Nodes, cfg.VNodes, 1)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:    cfg,
		ring:   ring,
		state:  make(map[string]*nodeState),
		hops:   telemetry.NewLatencySet(telemetry.NumHops),
		flight: telemetry.NewFlightRecorder(telemetry.DefaultHopSlots),
		// Boot-time base, shifted to dwarf node-local IDs; the hopSeq term
		// separates routers booted in the same nanosecond (tests).
		traceBase: (uint64(time.Now().UnixNano()) + hopSeq.Add(1)*1e9) << 20,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	for _, n := range ring.Nodes() {
		r.addState(n)
	}
	go r.probeLoop()
	return r, nil
}

// addState registers pool+health tracking for a node (idempotent).
// Callers hold r.mu or run before the router is shared.
func (r *Router) addState(n Node) *nodeState {
	if st, ok := r.state[n.Name]; ok {
		return st
	}
	st := &nodeState{
		node: n,
		pool: server.NewPool(n.TCPAddr, r.cfg.PoolMaxIdle, r.cfg.PoolIdleTimeout),
	}
	st.up.Store(true)
	r.state[n.Name] = st
	return st
}

// Ring returns the current routing ring.
func (r *Router) Ring() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// Epoch returns the current ring epoch.
func (r *Router) Epoch() uint64 { return r.Ring().Epoch() }

// Resharding reports whether a migration is in flight.
func (r *Router) Resharding() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.next != nil
}

// Healthy reports the router's live view of the named node.
func (r *Router) Healthy(name string) bool {
	r.mu.RLock()
	st := r.state[name]
	r.mu.RUnlock()
	return st != nil && st.up.Load()
}

// HealthyNodes returns how many members of the current ring are up.
func (r *Router) HealthyNodes() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, node := range r.ring.Nodes() {
		if st := r.state[node.Name]; st != nil && st.up.Load() {
			n++
		}
	}
	return n
}

// markDown records a data-path failure: the node is taken out of rotation
// immediately (passively) rather than waiting for the prober to notice.
// The prober revives it when /readyz answers again.
func (r *Router) markDown(st *nodeState, err error) {
	r.markDownTr(st, err, 0, 0, 0)
}

func (r *Router) logf(format string, args ...interface{}) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, format+"\n", args...)
	}
}

// routeSet collects the candidate nodes for one request (see
// routeView.set).
func (r *Router) routeSet(addr uint64, forWrite bool, buf []*nodeState) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v := routeView{r: r, ring: r.ring, next: r.next}
	n, _ := v.set(addr, forWrite, buf)
	return n
}

// setKey identifies a replica set by the ring index of each member, plus
// one (0 marks an unused slot); next-ring members are numbered after the
// current ring's nodes. It keys a map without hashing node names.
type setKey [2 * maxReplicas]uint16

// routeView resolves replica sets against the rings as they stand while
// the caller holds r.mu's read lock.
type routeView struct {
	r          *Router
	ring, next *Ring
	// states caches each ring index's node state, next-ring nodes after
	// the current ring's (see nodes); nil entries are not resolved yet,
	// and a nil slice caches nothing.
	states []*nodeState
}

// nodes is how many ring indices the view numbers.
func (v *routeView) nodes() int {
	n := len(v.ring.nodes)
	if v.next != nil {
		n += len(v.next.nodes)
	}
	return n
}

func (v *routeView) state(i int) *nodeState {
	if i < len(v.states) && v.states[i] != nil {
		return v.states[i]
	}
	name := ""
	if n := len(v.ring.nodes); i < n {
		name = v.ring.nodes[i].Name
	} else {
		name = v.next.nodes[i-n].Name
	}
	st := v.r.state[name]
	if i < len(v.states) {
		v.states[i] = st
	}
	return st
}

// set writes addr's candidate nodes into buf and returns how many, with
// the set's key: the replica set under the current ring, plus — for
// writes during a migration — the replica set under the next ring
// (dual-write), deduplicated, in primary-first order.
func (v *routeView) set(addr uint64, forWrite bool, buf []*nodeState) (int, setKey) {
	var key setKey
	var idx [maxReplicas]int
	n := 0
	add := func(i int) {
		st := v.state(i)
		if st == nil {
			return
		}
		for j := 0; j < n; j++ {
			if buf[j] == st {
				return
			}
		}
		if n < len(buf) {
			buf[n], key[n] = st, uint16(i+1)
			n++
		}
	}
	k := v.ring.ReplicasInto(addr, v.r.cfg.Replication, idx[:])
	for i := 0; i < k; i++ {
		add(idx[i])
	}
	if forWrite && v.next != nil {
		k = v.next.ReplicasInto(addr, v.r.cfg.Replication, idx[:])
		for i := 0; i < k; i++ {
			add(len(v.ring.nodes) + idx[i])
		}
	}
	return n, key
}

// retryable reports whether an error is worth a fresh attempt on the
// same node. Flow-control rejections (overloaded, timeout) may clear on
// retry; ErrClosing means the node is draining and retry is futile.
func retryable(err error) bool {
	return errors.Is(err, server.ErrOverloaded) || errors.Is(err, server.ErrTimeout)
}

// isStatusErr reports whether err is a protocol-level status (the
// connection completed the frame cleanly and can be reused).
func isStatusErr(err error) bool {
	return errors.Is(err, server.ErrOverloaded) || errors.Is(err, server.ErrTimeout) ||
		errors.Is(err, server.ErrClosing) || errors.Is(err, server.ErrUnavailable)
}

// doNode runs one operation against one node with the per-node retry
// budget: each attempt borrows a pooled connection with a request
// deadline; I/O failures discard the connection and retry on a fresh
// dial. Exhausting the budget (or hitting a drain/connection error on
// the last attempt) marks the node down and returns the last error.
// Control traffic (flush, stats, the reshard replay) routes through here;
// data paths use doNodeCtx or a wave (trace.go), which run the same
// attempt loop plus hop recording.
func (r *Router) doNode(st *nodeState, f func(c *server.TCPClient) error) error {
	return r.doNodeCtx(st, 0, 0, 0, f)
}

// Write routes one write to every healthy replica of addr (including the
// next ring's replicas while a reshard migrates). It succeeds when at
// least one replica accepted the write; the first (most-primary)
// successful response is returned. A fleet trace ID is minted for the
// request (see WriteTraced to supply one).
func (r *Router) Write(addr uint64, line ecc.Line) (server.WriteResponse, error) {
	return r.WriteTraced(r.NewTraceID(), addr, line)
}

// WriteTraced is Write under a caller-supplied trace ID (the cluster
// TCP front passes the client's wire ID or one it minted). The write goes
// out to every replica in one wave; replies are read primary-first.
func (r *Router) WriteTraced(trace uint64, addr uint64, line ecc.Line) (server.WriteResponse, error) {
	began := time.Now()
	r.markDirty(addr)
	var set [2 * maxReplicas]*nodeState
	n := r.routeSet(addr, true, set[:])
	send := func(c *server.TCPClient) error { return c.SendWrite(trace, addr, line) }
	var frames [2 * maxReplicas]nodeFrame
	var conns [2 * maxReplicas]waveConn
	w := wave{r: r, trace: trace, op: server.OpWrite, conns: conns[:]}
	w.start(frames[:n], set[:n], addr, send)
	var resp server.WriteResponse
	var lastErr error
	ok := false
	primaryOK := false
	for i := 0; i < n; i++ {
		f := &frames[i]
		if f.st == nil {
			continue
		}
		var out server.WriteResponse
		err := w.settle(f, addr, send, func(c *server.TCPClient) error {
			var err error
			out, err = c.RecvWrite()
			return err
		})
		if err != nil {
			lastErr = err
			continue
		}
		f.st.writes.Add(1)
		if i == 0 {
			primaryOK = true
		}
		if !ok {
			resp, ok = out, true
			if !primaryOK {
				// The primary never took this write; the first acceptor was a
				// replica further down the set.
				r.hopNow(telemetry.HopFailover, trace, server.OpWrite, f.st, addr, i, 0)
			}
		}
	}
	if ok && !primaryOK {
		// The write landed, but not on the primary: a replica absorbed it.
		r.failovers.Add(1)
	}
	if !ok {
		if lastErr == nil {
			lastErr = ErrNoReplica
		}
		r.hop(telemetry.HopRoute, trace, server.OpWrite, nil, addr, 0, server.StatusOf(lastErr), began)
		return server.WriteResponse{}, fmt.Errorf("%w (addr=%d): %v", ErrNoReplica, addr, lastErr)
	}
	resp.Trace = trace
	r.hop(telemetry.HopRoute, trace, server.OpWrite, nil, addr, 0, server.StatusOK, began)
	return resp, nil
}

// markDirty records addr as client-written while a migration is in
// flight, so the reshard replay will not clobber it with a stale
// snapshot (see reshard.go).
func (r *Router) markDirty(addr uint64) {
	r.mu.RLock()
	migrating := r.next != nil
	r.mu.RUnlock()
	if !migrating {
		return
	}
	r.migMu.Lock()
	if r.migDirty != nil {
		r.migDirty[addr] = struct{}{}
	}
	r.migMu.Unlock()
}

// Read routes one read to addr's primary, failing over to the follower
// replicas on error, with optional hedging and sampled read repair. A
// fleet trace ID is minted for the request (see ReadTraced to supply one).
func (r *Router) Read(addr uint64) (server.ReadResponse, error) {
	return r.ReadTraced(r.NewTraceID(), addr)
}

// ReadTraced is Read under a caller-supplied trace ID (see WriteTraced).
func (r *Router) ReadTraced(trace uint64, addr uint64) (server.ReadResponse, error) {
	res, err := r.readLine(trace, addr)
	if err != nil {
		return server.ReadResponse{}, err
	}
	return server.ReadResponse{Hit: res.Hit, Data: append([]byte(nil), res.Data[:]...), LatencyNs: res.LatencyNs, Trace: trace}, nil
}

// readLine is ReadTraced with the line kept by value, from the node's
// reply to the caller: the front's scalar read path allocates nothing.
func (r *Router) readLine(trace uint64, addr uint64) (server.BatchReadResult, error) {
	began := time.Now()
	res, err := r.readRouted(trace, addr)
	r.hop(telemetry.HopRoute, trace, server.OpRead, nil, addr, 0, server.StatusOf(err), began)
	return res, err
}

func (r *Router) readRouted(trace uint64, addr uint64) (server.BatchReadResult, error) {
	var set [2 * maxReplicas]*nodeState
	n := r.routeSet(addr, false, set[:])

	if r.cfg.ReadRepairEvery > 0 && r.cfg.Replication >= 2 && n >= 2 &&
		r.readSeq.Add(1)%uint64(r.cfg.ReadRepairEvery) == 0 {
		if resp, done := r.readRepair(trace, addr, set[:n]); done {
			return resp, nil
		}
	}

	if r.cfg.HedgeAfter > 0 && n >= 2 && set[0].up.Load() && set[1].up.Load() {
		return r.readHedged(trace, addr, set[0], set[1])
	}

	var lastErr error
	for i := 0; i < n; i++ {
		st := set[i]
		if !st.up.Load() {
			continue
		}
		resp, err := r.readNode(st, trace, addr)
		if err != nil {
			lastErr = err
			continue
		}
		if i > 0 {
			// Served by a follower because the primary was down or failed.
			r.failovers.Add(1)
			r.hopNow(telemetry.HopFailover, trace, server.OpRead, st, addr, i, 0)
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = ErrNoReplica
	}
	return server.BatchReadResult{}, fmt.Errorf("%w (addr=%d): %v", ErrNoReplica, addr, lastErr)
}

func (r *Router) readNode(st *nodeState, trace uint64, addr uint64) (server.BatchReadResult, error) {
	var out server.BatchReadResult
	err := r.doNodeCtx(st, trace, server.OpRead, addr, func(c *server.TCPClient) error {
		if err := c.SendRead(trace, addr); err != nil {
			return err
		}
		if err := c.Push(); err != nil {
			return err
		}
		_, err := c.RecvReadLine(&out)
		return err
	})
	if err == nil {
		st.reads.Add(1)
	}
	return out, err
}

// readHedged races the primary against a delayed follower request and
// returns the first success. The loser finishes in the background (its
// connection returns to the pool through the normal path), which is what
// puts the propagated trace ID in BOTH nodes' flight recorders — the
// winner's and the loser's — for esdtrace to stitch.
func (r *Router) readHedged(trace uint64, addr uint64, primary, follower *nodeState) (server.BatchReadResult, error) {
	type result struct {
		from *nodeState
		resp server.BatchReadResult
		err  error
	}
	ch := make(chan result, 2)
	go func() {
		resp, err := r.readNode(primary, trace, addr)
		ch <- result{primary, resp, err}
	}()
	timer := time.NewTimer(r.cfg.HedgeAfter)
	defer timer.Stop()
	launched := 1
	hedged := false
	for {
		select {
		case res := <-ch:
			if res.err == nil {
				if hedged && res.from == follower {
					r.hopNow(telemetry.HopHedgeWin, trace, server.OpRead, follower, addr, 0, 0)
				}
				return res.resp, nil
			}
			launched--
			if launched == 0 {
				// Both attempts failed (or the only one did and the timer
				// has not fired): fall back to launching the follower
				// synchronously if it never ran.
				if timer.Stop() {
					r.failovers.Add(1)
					r.hopNow(telemetry.HopFailover, trace, server.OpRead, follower, addr, 1, 0)
					return r.readNode(follower, trace, addr)
				}
				return server.BatchReadResult{}, res.err
			}
		case <-timer.C:
			r.hedges.Add(1)
			r.hopNow(telemetry.HopHedge, trace, server.OpRead, follower, addr, 0, 0)
			hedged = true
			launched++
			go func() {
				resp, err := r.readNode(follower, trace, addr)
				ch <- result{follower, resp, err}
			}()
		}
	}
}

// readRepair reads every healthy replica, in one wave, and reconciles
// divergence: when exactly one side holds the line the copy is
// propagated, and when both hold different bytes the primary
// (write-order owner) wins. done=false means no replica could serve the
// read and the caller should fall back to the normal path.
func (r *Router) readRepair(trace uint64, addr uint64, set []*nodeState) (server.BatchReadResult, bool) {
	type got struct {
		st   *nodeState
		resp server.BatchReadResult
	}
	send := func(c *server.TCPClient) error { return c.SendRead(trace, addr) }
	var frames [2 * maxReplicas]nodeFrame
	var conns [2 * maxReplicas]waveConn
	w := wave{r: r, trace: trace, op: server.OpRead, conns: conns[:]}
	w.start(frames[:len(set)], set, addr, send)
	var okBuf [2 * maxReplicas]got
	oks := okBuf[:0]
	for i := range set {
		f := &frames[i]
		if f.st == nil {
			continue
		}
		var resp server.BatchReadResult
		err := w.settle(f, addr, send, func(c *server.TCPClient) error {
			_, err := c.RecvReadLine(&resp)
			return err
		})
		if err != nil {
			continue
		}
		f.st.reads.Add(1)
		oks = append(oks, got{f.st, resp})
	}
	if len(oks) == 0 {
		return server.BatchReadResult{}, false
	}
	auth := oks[0] // primary-most successful replica is authoritative
	if auth.resp.Hit {
		line := auth.resp.Data
		for _, g := range oks[1:] {
			if g.resp.Hit && g.resp.Data == line {
				continue
			}
			r.repairs.Add(1)
			r.logf("cluster: read repair addr=%d (trace=%d): rewriting %s from %s", addr, trace, g.st.node.Name, auth.st.node.Name)
			began := time.Now()
			_ = r.doNodeCtx(g.st, trace, server.OpWrite, addr, func(c *server.TCPClient) error {
				_, err := c.WriteTraced(trace, addr, line)
				return err
			})
			r.hop(telemetry.HopReadRepair, trace, server.OpWrite, g.st, addr, 0, 0, began)
		}
	}
	return auth.resp, true
}

// Flush fans a flush out to every healthy node of the current ring (and
// the next ring mid-migration); it fails if any reachable node fails.
func (r *Router) Flush() error {
	var firstErr error
	for _, st := range r.allStates() {
		if !st.up.Load() {
			continue
		}
		err := r.doNode(st, func(c *server.TCPClient) error { return c.Flush() })
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats aggregates /v1/stats-equivalent counters across healthy nodes.
func (r *Router) Stats() (server.StatsResponse, error) {
	var sum server.StatsResponse
	got := 0
	for _, st := range r.allStates() {
		if !st.up.Load() {
			continue
		}
		var out server.StatsResponse
		err := r.doNode(st, func(c *server.TCPClient) error {
			var err error
			out, err = c.Stats()
			return err
		})
		if err != nil {
			continue
		}
		if got == 0 {
			sum.Scheme = out.Scheme
		}
		got++
		sum.Shards += out.Shards
		sum.Writes += out.Writes
		sum.Reads += out.Reads
		sum.DedupWrites += out.DedupWrites
		sum.UniqueWrites += out.UniqueWrites
		sum.DeviceWrites += out.DeviceWrites
		sum.EnergyNJ += out.EnergyNJ
		sum.MetadataNVMM += out.MetadataNVMM
		sum.Shed += out.Shed
		if out.MaxWear > sum.MaxWear {
			sum.MaxWear = out.MaxWear
		}
		if out.SimNowNs > sum.SimNowNs {
			sum.SimNowNs = out.SimNowNs
		}
	}
	if got == 0 {
		return sum, ErrNoReplica
	}
	if sum.Writes+sum.Reads > 0 {
		sum.DedupRate = float64(sum.DedupWrites) / float64(max64(sum.Writes, 1))
	}
	return sum, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// allStates snapshots the tracked nodes: ring members first (in ring
// order), then any next-ring additions.
func (r *Router) allStates() []*nodeState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*nodeState
	seen := make(map[string]bool)
	collect := func(ring *Ring) {
		if ring == nil {
			return
		}
		for _, n := range ring.Nodes() {
			if seen[n.Name] {
				continue
			}
			seen[n.Name] = true
			if st := r.state[n.Name]; st != nil {
				out = append(out, st)
			}
		}
	}
	collect(r.ring)
	collect(r.next)
	return out
}

// Close stops the prober and closes every connection pool.
func (r *Router) Close() {
	close(r.probeStop)
	<-r.probeDone
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.state {
		st.pool.Close()
	}
}

// probeLoop polls node health every ProbeInterval until Close.
func (r *Router) probeLoop() {
	defer close(r.probeDone)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-t.C:
			r.ProbeOnce()
		}
	}
}

// dialProbe is the TCP fallback health probe for nodes without an HTTP
// address: a successful dial counts as alive.
func dialProbe(addr string, timeout time.Duration) error {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	return c.Close()
}
