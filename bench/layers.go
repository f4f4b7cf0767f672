package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/esdsim/esd"
	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/experiments"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/telemetry"
)

// shardsPerNode is the deployed node shape (esdserve -shards 4).
const shardsPerNode = 4

// nodeConfig is one node's configuration: the paper's Table I defaults on a
// 1 GiB device, plus the workload's DRAM buffer for esd+caram.
func nodeConfig(s spec) config.Config {
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 30
	if s.dramBytes > 0 {
		cfg.Media.DRAM.CapacityBytes = s.dramBytes
	}
	return cfg
}

// partConfig is the configuration shard.New gives each of a node's shards:
// its slice of the PCM and DRAM capacity, with full-size SRAM caches.
func partConfig(cfg config.Config) config.Config {
	c := cfg
	c.PCM.CapacityBytes = cfg.PCM.CapacityBytes / shardsPerNode
	c.PCM.CapacityBytes -= c.PCM.CapacityBytes % config.CacheLineSize
	if c.Media.DRAM.CapacityBytes > 0 {
		c.Media.DRAM.CapacityBytes = cfg.Media.DRAM.CapacityBytes / shardsPerNode
		c.Media.DRAM.CapacityBytes -= c.Media.DRAM.CapacityBytes % config.CacheLineSize
	}
	return c
}

// frameBuf is one request frame: the caller fills addrs and, for writes,
// lines; a layer fills read data, hit flags and per-op failures.
type frameBuf struct {
	addrs []uint64
	lines []ecc.Line
	hits  []bool
	fail  []bool
}

func newFrameBuf(size int) *frameBuf {
	return &frameBuf{
		addrs: make([]uint64, size),
		lines: make([]ecc.Line, size),
		hits:  make([]bool, size),
		fail:  make([]bool, size),
	}
}

func (b *frameBuf) resize(n int) {
	b.addrs, b.lines, b.hits, b.fail = b.addrs[:n], b.lines[:n], b.hits[:n], b.fail[:n]
	clear(b.hits)
	clear(b.fail)
}

// layer is one public entry point of the serving stack, driven one frame
// at a time. Per-op failures land in frameBuf.fail; the returned error is
// the first of them.
type layer interface {
	write(b *frameBuf) error
	read(b *frameBuf) error
	close() error
}

// wireClient is the request surface server.TCPClient and cluster.Router
// share, so one layer drives a node or router socket and the router library.
type wireClient interface {
	Write(addr uint64, line ecc.Line) (server.WriteResponse, error)
	Read(addr uint64) (server.ReadResponse, error)
	WriteBatch(ops []server.BatchWriteOp, res []server.BatchWriteResult) error
	ReadBatch(addrs []uint64, res []server.BatchReadResult) error
}

// wireLayer sends scalar frames as scalar requests and larger frames as
// batch requests, as esdload does.
type wireLayer struct {
	c    wireClient
	wops []server.BatchWriteOp
	wres []server.BatchWriteResult
	rres []server.BatchReadResult
	done func() error
}

func newWireLayer(c wireClient, size int, done func() error) *wireLayer {
	return &wireLayer{
		c:    c,
		wops: make([]server.BatchWriteOp, size),
		wres: make([]server.BatchWriteResult, size),
		rres: make([]server.BatchReadResult, size),
		done: done,
	}
}

func (l *wireLayer) write(b *frameBuf) error {
	n := len(b.addrs)
	if n == 1 {
		_, err := l.c.Write(b.addrs[0], b.lines[0])
		b.fail[0] = err != nil
		return err
	}
	for i := 0; i < n; i++ {
		l.wops[i] = server.BatchWriteOp{Addr: b.addrs[i], Line: b.lines[i]}
	}
	if err := l.c.WriteBatch(l.wops[:n], l.wres[:n]); err != nil {
		failAll(b)
		return err
	}
	var first error
	for i := 0; i < n; i++ {
		if err := l.wres[i].Err; err != nil {
			b.fail[i] = true
			first = firstErr(first, err)
		}
	}
	return first
}

func (l *wireLayer) read(b *frameBuf) error {
	n := len(b.addrs)
	if n == 1 {
		resp, err := l.c.Read(b.addrs[0])
		if err != nil {
			b.fail[0] = true
			return err
		}
		b.hits[0] = resp.Hit
		copy(b.lines[0][:], resp.Data)
		return nil
	}
	if err := l.c.ReadBatch(b.addrs, l.rres[:n]); err != nil {
		failAll(b)
		return err
	}
	var first error
	for i := 0; i < n; i++ {
		if err := l.rres[i].Err; err != nil {
			b.fail[i] = true
			first = firstErr(first, err)
			continue
		}
		b.hits[i] = l.rres[i].Hit
		b.lines[i] = l.rres[i].Data
	}
	return first
}

func (l *wireLayer) close() error { return l.done() }

// shardLayer calls the engine entry points internal/server calls: the
// traced Try variants, with a fresh trace context per frame.
type shardLayer struct {
	eng *shard.Engine
	ops []shard.WriteBatchOp
}

func (l *shardLayer) trace() telemetry.TraceCtx {
	tc := l.eng.NewTrace()
	tc.StartNs = time.Now().UnixNano()
	return tc
}

func (l *shardLayer) write(b *frameBuf) error {
	ctx := context.Background()
	n := len(b.addrs)
	if n == 1 {
		_, err := l.eng.TryWriteTraced(ctx, b.addrs[0], b.lines[0], l.trace())
		b.fail[0] = err != nil
		return err
	}
	ops := l.ops[:n]
	for i := range ops {
		ops[i] = shard.WriteBatchOp{Addr: b.addrs[i], Line: b.lines[i]}
	}
	err := l.eng.TryWriteBatchTraced(ctx, ops, l.trace())
	for i := range ops {
		if ops[i].Err != nil {
			b.fail[i] = true
			err = firstErr(err, ops[i].Err)
		}
	}
	return err
}

func (l *shardLayer) read(b *frameBuf) error {
	ctx := context.Background()
	tc := l.trace()
	var first error
	for i, a := range b.addrs {
		res, err := l.eng.TryReadTraced(ctx, a, tc)
		if err != nil {
			b.fail[i] = true
			first = firstErr(first, err)
			continue
		}
		b.hits[i] = res.Hit
		b.lines[i] = res.Data
	}
	return first
}

func (l *shardLayer) close() error { return l.eng.Close() }

// systemLayer drives four esd.System instances inline, partitioned like a
// node's shards: address a goes to instance a mod 4 at local address a div 4.
type systemLayer struct {
	parts []*esd.System
	subs  [][]esd.WriteBatchOp
}

func newSystemLayer(s spec) (*systemLayer, error) {
	l := &systemLayer{subs: make([][]esd.WriteBatchOp, shardsPerNode)}
	pc := partConfig(nodeConfig(s))
	for i := 0; i < shardsPerNode; i++ {
		sys, err := esd.NewSystem(pc, s.scheme, esd.WithMetrics())
		if err != nil {
			return nil, err
		}
		l.parts = append(l.parts, sys)
	}
	return l, nil
}

func (l *systemLayer) write(b *frameBuf) error {
	if len(b.addrs) == 1 {
		a := b.addrs[0]
		l.parts[a%shardsPerNode].Write(a/shardsPerNode, b.lines[0])
		return nil
	}
	for k := range l.subs {
		l.subs[k] = l.subs[k][:0]
	}
	for i, a := range b.addrs {
		k := a % shardsPerNode
		l.subs[k] = append(l.subs[k], esd.WriteBatchOp{Addr: a / shardsPerNode, Line: b.lines[i]})
	}
	for k, sub := range l.subs {
		l.parts[k].WriteBatch(sub)
	}
	return nil
}

func (l *systemLayer) read(b *frameBuf) error {
	for i, a := range b.addrs {
		line, out := l.parts[a%shardsPerNode].Read(a / shardsPerNode)
		b.lines[i], b.hits[i] = line, out.Hit
	}
	return nil
}

func (l *systemLayer) close() error { return nil }

// schemeLayer drives four scheme instances inline, each on its own
// environment with a telemetry sink on one shared registry, as a node's
// shards are built; each instance self-clocks like esd.System.
type schemeLayer struct {
	parts []*schemePart
}

type schemePart struct {
	sch   memctrl.Scheme
	now   sim.Time
	batch []memctrl.BatchWrite
}

// issueGap is the simulated time between self-clocked requests, the
// default of both esd.System and shard.Options.
const issueGap = 10 * sim.Nanosecond

func (p *schemePart) tick() sim.Time {
	p.now += issueGap
	return p.now
}

func (p *schemePart) done(t sim.Time) {
	if t > p.now {
		p.now = t
	}
}

func newSchemeLayer(s spec) (*schemeLayer, error) {
	l := &schemeLayer{}
	pc := partConfig(nodeConfig(s))
	reg := telemetry.NewRegistry()
	for i := 0; i < shardsPerNode; i++ {
		env := memctrl.NewEnv(pc)
		env.AttachTelemetry(telemetry.NewSink(telemetry.Options{
			Registry: reg,
			Labels:   fmt.Sprintf("shard=%q", fmt.Sprint(i)),
		}))
		sch, err := experiments.NewScheme(env, s.scheme)
		if err != nil {
			return nil, err
		}
		l.parts = append(l.parts, &schemePart{sch: sch})
	}
	return l, nil
}

func (l *schemeLayer) write(b *frameBuf) error {
	if len(b.addrs) == 1 {
		a := b.addrs[0]
		p := l.parts[a%shardsPerNode]
		p.done(p.sch.Write(a/shardsPerNode, &b.lines[0], p.tick()).Done)
		return nil
	}
	for _, p := range l.parts {
		p.batch = p.batch[:0]
	}
	for i, a := range b.addrs {
		p := l.parts[a%shardsPerNode]
		p.batch = append(p.batch, memctrl.BatchWrite{Logical: a / shardsPerNode, Data: &b.lines[i], At: p.tick()})
	}
	for _, p := range l.parts {
		if len(p.batch) == 0 {
			continue
		}
		memctrl.WriteBatch(p.sch, p.batch)
		for i := range p.batch {
			p.done(p.batch[i].Out.Done)
		}
	}
	return nil
}

func (l *schemeLayer) read(b *frameBuf) error {
	for i, a := range b.addrs {
		p := l.parts[a%shardsPerNode]
		out := p.sch.Read(a/shardsPerNode, p.tick())
		p.done(out.Done)
		b.lines[i], b.hits[i] = out.Data, out.Hit
	}
	return nil
}

func (l *schemeLayer) close() error { return nil }

func failAll(b *frameBuf) {
	for i := range b.fail {
		b.fail[i] = true
	}
}

func firstErr(first, err error) error {
	if first != nil {
		return first
	}
	return err
}

// stack is a booted deployment: nodes (shard engine + TCP server), and
// optionally a router over them and the router's TCP front.
type stack struct {
	engines []*shard.Engine
	nodes   []*server.Server
	router  *cluster.Router
	front   *cluster.Server
}

// nodeOptions is esdserve -shards 4 -metrics: queue 128, drain batch 32,
// no coalescing, stage tracing on.
var nodeOptions = shard.Options{Shards: shardsPerNode, Metrics: true, Tracing: true}

// bootStack starts n nodes and, when replication > 0, a router with that
// replication factor over them (router defaults otherwise: tracing on,
// read repair every 64th read, one retry, no hedging), plus its TCP front
// when front is set.
func bootStack(s spec, n, replication int, front bool) (*stack, error) {
	st := &stack{}
	cfg := nodeConfig(s)
	var members []cluster.Node
	for i := 0; i < n; i++ {
		eng, err := shard.New(cfg, s.scheme, nodeOptions)
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		st.engines = append(st.engines, eng)
		srv, err := server.New(eng, server.Config{Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"})
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		st.nodes = append(st.nodes, srv)
		// Fixed names keep the ring, and so each address's replica set,
		// independent of the ephemeral ports.
		members = append(members, cluster.Node{Name: fmt.Sprintf("n%d", i), TCPAddr: srv.TCPAddr(), HTTPAddr: srv.Addr()})
	}
	if replication == 0 {
		return st, nil
	}
	r, err := cluster.NewRouter(cluster.Config{Nodes: members, Replication: replication})
	if err != nil {
		return nil, errors.Join(err, st.close())
	}
	st.router = r
	if front {
		f, err := cluster.NewServer(r, cluster.ServeConfig{TCPAddr: "127.0.0.1:0"})
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		st.front = f
	}
	return st, nil
}

// close stops the stack front to back. Clients must be closed first, so
// the servers' connection handlers see EOF instead of waiting out their
// idle poll.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if st.front != nil {
		errs = append(errs, st.front.Shutdown(ctx))
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, n := range st.nodes {
		errs = append(errs, n.Shutdown(ctx))
	}
	for _, e := range st.engines {
		errs = append(errs, e.Close())
	}
	return errors.Join(errs...)
}

// dial opens one client connection to the stack's front, or to its first
// node when the stack has no front.
func (st *stack) dial(size int) (*wireLayer, error) {
	addr := st.nodes[0].TCPAddr()
	if st.front != nil {
		addr = st.front.TCPAddr()
	}
	c, err := server.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	return newWireLayer(c, size, c.Close), nil
}
