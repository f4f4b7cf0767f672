// Package shard implements the sharded concurrent engine: it partitions
// the physical line-address space across N independent single-threaded
// scheme instances ("shards"), each owning its own EFIT, AMT, counter
// cache and NVM bank group, and drives them through per-shard bounded
// request queues served by one worker goroutine per shard. A caller that
// waits for its reply and finds its shard idle runs the request on its
// own goroutine instead; a shard has one owner at a time either way.
//
// The design mirrors the hardware's inherent parallelism (independent PCM
// bank groups and address regions) while keeping every shard exactly as
// deterministic as the single-threaded System it replaces: a shard is the
// unit of ordering, and requests to one shard execute in submission
// order. Deduplication is intentionally *not* attempted across shards —
// like the paper's per-region selective dedup, content is deduplicated
// only within the region (shard) it maps to, which removes all cross-shard
// synchronization from the write path (see DESIGN.md §7).
//
// Address routing is deterministic: logical line address a maps to shard
// a mod N and shard-local address a div N, so adjacent lines stripe
// round-robin across shards for load balance and the mapping is a
// bijection per shard.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/experiments"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// Engine lifecycle and flow-control errors.
var (
	// ErrClosed is returned by requests submitted after Close.
	ErrClosed = errors.New("shard: engine closed")
	// ErrOverloaded is returned by Try* calls when the target shard's
	// queue is full; callers shed load (the server maps it to HTTP 429).
	ErrOverloaded = errors.New("shard: shard queue full")
)

// Options configures an Engine.
type Options struct {
	// Shards is the number of independent shards (default 1). Each shard
	// owns 1/Shards of the device capacity as its private bank group.
	Shards int
	// QueueDepth bounds each shard's request queue (default 128). A full
	// queue blocks Write/Read and fails TryWrite/TryRead with
	// ErrOverloaded.
	QueueDepth int
	// Batch is the maximum number of queued requests a shard worker
	// drains per wakeup (default 32); a drained batch takes the owner
	// lock and republishes the shard's counters once, not per request.
	Batch int
	// IssueGap is the simulated time each shard's clock advances per
	// request (default 10 ns), matching System.IssueGap.
	IssueGap sim.Time
	// Metrics enables per-shard telemetry sinks on one shared registry;
	// every metric carries a shard="i" label.
	Metrics bool
	// Tracing enables request-scoped stage tracing: per-shard per-stage
	// latency histograms (the /statusz p50/p99 source) and trace-context
	// propagation into the telemetry hooks. Off by default; the flight
	// recorder runs regardless.
	Tracing bool
	// FlightSlots sizes each shard's always-on flight-recorder ring
	// (rounded up to a power of two; <=0 selects
	// telemetry.DefaultFlightSlots). The recorder cannot be disabled —
	// it is the post-hoc debugging black box — only sized.
	FlightSlots int
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 128
	}
	if o.Batch <= 0 {
		o.Batch = 32
	}
	if o.IssueGap <= 0 {
		o.IssueGap = 10 * sim.Nanosecond
	}
	if o.FlightSlots <= 0 {
		o.FlightSlots = telemetry.DefaultFlightSlots
	}
	return o
}

// Engine is the sharded concurrent front of the simulator: N independent
// scheme instances behind bounded queues, safe for concurrent use by any
// number of goroutines.
type Engine struct {
	cfg    config.Config
	opts   Options
	scheme string
	shards []*shard
	reg    *telemetry.Registry

	mu     sync.RWMutex // guards closed against in-flight submits
	closed bool
	wg     sync.WaitGroup
	shed   atomic.Uint64
	trace  atomic.Uint64 // trace-ID allocator (see NewTrace)
}

// New builds an Engine running the named scheme on every shard. The
// configuration is validated once; each shard receives a copy whose PCM
// capacity is its 1/Shards slice of the device (its bank group), while
// metadata SRAM caches stay full-sized per shard (each shard is its own
// memory controller slice).
func New(cfg config.Config, scheme string, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if msg := cfg.Validate(); msg != "" {
		return nil, fmt.Errorf("shard: %s", msg)
	}
	if opts.Shards > 1024 {
		return nil, fmt.Errorf("shard: %d shards (max 1024)", opts.Shards)
	}
	shardCfg := cfg
	shardCfg.PCM.CapacityBytes = cfg.PCM.CapacityBytes / int64(opts.Shards)
	shardCfg.PCM.CapacityBytes -= shardCfg.PCM.CapacityBytes % config.CacheLineSize
	if shardCfg.Media.DRAM.CapacityBytes > 0 {
		// The hybrid tier's DRAM buffer is partitioned like the PCM it
		// fronts, so an N-shard engine has the same total DRAM as one.
		shardCfg.Media.DRAM.CapacityBytes = cfg.Media.DRAM.CapacityBytes / int64(opts.Shards)
		shardCfg.Media.DRAM.CapacityBytes -= shardCfg.Media.DRAM.CapacityBytes % config.CacheLineSize
	}
	if msg := shardCfg.Validate(); msg != "" {
		return nil, fmt.Errorf("shard: per-shard config: %s", msg)
	}
	e := &Engine{cfg: cfg, opts: opts, scheme: scheme}
	if opts.Metrics {
		e.reg = telemetry.NewRegistry()
		e.reg.SetPublish(e.publish)
	}
	for i := 0; i < opts.Shards; i++ {
		env := memctrl.NewEnv(shardCfg)
		if e.reg != nil {
			env.AttachTelemetry(telemetry.NewSink(telemetry.Options{
				Registry: e.reg,
				Labels:   fmt.Sprintf("shard=%q", fmt.Sprint(i)),
			}))
		}
		sch, err := experiments.NewScheme(env, scheme)
		if err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		s := &shard{
			id:       i,
			shards:   opts.Shards,
			env:      env,
			sch:      sch,
			reqs:     make(chan request, opts.QueueDepth),
			gap:      opts.IssueGap,
			batch:    opts.Batch,
			interval: sch.TickInterval(),
			flight:   telemetry.NewFlightRecorder(opts.FlightSlots),
			stages:   env.Tel.Stages(),
		}
		if opts.Tracing && s.stages == nil {
			s.stages = telemetry.NewLatencySet(telemetry.NumStages)
		}
		s.nextTick = s.interval
		e.shards = append(e.shards, s)
		e.wg.Add(1)
		go s.run(&e.wg)
	}
	return e, nil
}

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// SchemeName returns the scheme every shard runs.
func (e *Engine) SchemeName() string { return e.scheme }

// Config returns the engine-level (whole device) configuration.
func (e *Engine) Config() config.Config { return e.cfg }

// Registry returns the shared telemetry registry (nil without
// Options.Metrics). Metric names carry shard="i" labels.
func (e *Engine) Registry() *telemetry.Registry { return e.reg }

// ShardOf returns the shard that owns logical line address addr.
func (e *Engine) ShardOf(addr uint64) int { return int(addr % uint64(len(e.shards))) }

// localAddr translates a global logical address to the owning shard's
// address space (the router's bijection: addr = local*N + shard).
func (e *Engine) localAddr(addr uint64) uint64 { return addr / uint64(len(e.shards)) }

// Shed returns the number of Try* requests rejected with ErrOverloaded.
func (e *Engine) Shed() uint64 { return e.shed.Load() }

// NewTrace allocates the next request trace context (monotonic trace IDs,
// span 1). The serving front end stamps every incoming request with one and
// threads it through the Traced request variants.
func (e *Engine) NewTrace() telemetry.TraceCtx {
	return telemetry.TraceCtx{TraceID: e.trace.Add(1), Span: 1}
}

// AdoptTrace builds a trace context for a request whose ID was minted
// elsewhere and propagated here on the wire (the cluster router is the
// originator). Span 2 under parent span 1 marks the node-local leg of the
// routed request, so flight-recorder slots and slow-log lines on this node
// carry the fleet-wide ID instead of a fresh local one.
func (e *Engine) AdoptTrace(id uint64) telemetry.TraceCtx {
	return telemetry.TraceCtx{TraceID: id, Span: 2, Parent: 1}
}

// TracingEnabled reports whether stage tracing is on (Options.Tracing).
func (e *Engine) TracingEnabled() bool { return e.opts.Tracing }

// QueueCap returns the per-shard queue bound.
func (e *Engine) QueueCap() int { return e.opts.QueueDepth }

// QueueLens returns each shard's current queue depth: the requests that
// found their shard busy, since a request run inline never enters the
// queue. Unlike Snapshots it is not a barrier — it reads the live channel lengths, so it stays
// responsive even when a shard is wedged (which is exactly when /statusz
// matters most).
func (e *Engine) QueueLens() []int {
	out := make([]int, len(e.shards))
	for i, s := range e.shards {
		out[i] = len(s.reqs)
	}
	return out
}

// FlightLen returns how many records the shards' flight recorders hold,
// without decoding or locking any ring slot.
func (e *Engine) FlightLen() int {
	n := 0
	for _, s := range e.shards {
		n += s.flight.Len()
	}
	return n
}

// FlightRecords snapshots every shard's flight recorder, ordered by shard
// then by record age. It is safe to call at any time — including with
// shards wedged mid-request — because recording is wait-free and the dump
// only reads published slots.
func (e *Engine) FlightRecords() []telemetry.Record {
	var out []telemetry.Record
	for _, s := range e.shards {
		out = append(out, s.flight.Snapshot()...)
	}
	return out
}

// StageSnapshot merges every shard's stage latency sets;
// ok is false when stage tracing is disabled. It takes no barrier: it
// publishes first (see publish), then snapshots each published histogram
// under its own mutex while the shards keep running.
func (e *Engine) StageSnapshot() ([telemetry.NumStages]stats.Histogram, bool) {
	var out [telemetry.NumStages]stats.Histogram
	if !e.opts.Tracing {
		return out, false
	}
	e.publish()
	for _, s := range e.shards {
		s.stages.Snapshot(out[:])
	}
	return out, true
}

// publish brings every shard's published telemetry up to date before a
// render (the registry's publish hook, and StageSnapshot). An idle shard
// is published on the caller's goroutine under its owner lock; a busy
// one is asked to publish at its next publishStats, which comes at the
// end of the batch or inline request it is running. All shards are asked
// before any is waited for, and the wait ends after
// telemetry.PublishWait, so a shard wedged mid-batch delays a render by
// that much and then shows the values of its last publication.
func (e *Engine) publish() {
	deadline := time.Now().Add(telemetry.PublishWait)
	for _, s := range e.shards {
		s.pub.Ask()
	}
	for _, s := range e.shards {
		s.pub.Await(&s.own, s.publishTelemetry, deadline)
	}
}

// respChanPool recycles the buffered (capacity 1) response channels a
// request borrows for its reply, so the steady-state blocking Write/Read
// path allocates nothing. A channel is returned to the pool only after its
// single response has been received (or when it was never submitted); a
// Try* caller that abandons a queued request must NOT recycle its channel,
// because the worker will still send into it later.
var respChanPool = sync.Pool{
	New: func() any { return make(chan response, 1) },
}

func getRespChan() chan response  { return respChanPool.Get().(chan response) }
func putRespChan(c chan response) { respChanPool.Put(c) }

// submit enqueues r on shard sh. When block is false a full queue fails
// with ErrOverloaded instead of waiting.
func (e *Engine) submit(sh int, r request, block bool) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	return e.enqueue(e.shards[sh], r, block)
}

// enqueue sends r to s's queue; the caller holds e.mu for reading and has
// checked closed. The pending count rises before the send, so a caller
// that later finds it zero knows r has executed.
func (e *Engine) enqueue(s *shard, r request, block bool) error {
	s.pending.Add(1)
	if block {
		s.reqs <- r
		return nil
	}
	select {
	case s.reqs <- r:
		return nil
	default:
		s.pending.Add(-1)
		e.shed.Add(1)
		return ErrOverloaded
	}
}

// start runs r on shard sh for a caller that waits for the reply. When the
// shard is idle — nothing submitted is still unexecuted, and no one owns
// it — r runs inline on the calling goroutine, through the worker's exec
// and publishStats, and start returns its response with a nil channel.
// Otherwise r is queued like submit and start returns the pooled channel
// its reply arrives on. e.mu is taken before the owner lock, the order a
// submitter blocked on a full queue and Close rely on, and held through
// an inline run, so Close waits for it.
func (e *Engine) start(sh int, r request, block bool) (response, chan response, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return response{}, nil, ErrClosed
	}
	s := e.shards[sh]
	if s.pending.Load() == 0 && s.own.TryLock() {
		s.inline = r
		resp := s.exec(&s.inline)
		s.publishStats()
		s.own.Unlock()
		return resp, nil, nil
	}
	r.done = getRespChan()
	if err := e.enqueue(s, r, block); err != nil {
		putRespChan(r.done)
		return response{}, nil, err
	}
	return response{}, r.done, nil
}

// call runs r on shard sh and waits for its response. With block set a
// full queue blocks; otherwise it fails with ErrOverloaded. ctx expiring,
// or r's deadline passing, abandons only a queued wait: the shard still
// executes r.
func (e *Engine) call(ctx context.Context, sh int, r request, block bool) (response, error) {
	resp, done, err := e.start(sh, r, block)
	if done == nil {
		return resp, err
	}
	w := startWait(ctx, r.tc.Deadline)
	defer w.stop()
	if resp, err = w.recv(done); err != nil {
		// Abandoned: the shard still executes the request and sends
		// into done, so the channel cannot be recycled.
		return response{}, err
	}
	putRespChan(done)
	return resp, nil
}

// queuedWait bounds a caller's wait for requests it queued behind a busy
// shard, the one place a caller waits: it ends when ctx is done or when
// the request's deadline (TraceCtx.Deadline) passes. Its timer is armed
// only once something has queued, so a request run inline arms none.
type queuedWait struct {
	ctx   context.Context // nil: no cancellation
	timer *time.Timer     // nil: no deadline
}

func startWait(ctx context.Context, deadline int64) queuedWait {
	w := queuedWait{ctx: ctx}
	if deadline != 0 {
		w.timer = time.NewTimer(time.Duration(deadline - time.Now().UnixNano()))
	}
	return w
}

// recv waits for ch's response, or returns the error that ended the wait
// first: ctx's, or context.DeadlineExceeded for the deadline.
func (w *queuedWait) recv(ch chan response) (response, error) {
	var cancel <-chan struct{}
	if w.ctx != nil {
		cancel = w.ctx.Done()
	}
	var expire <-chan time.Time
	if w.timer != nil {
		expire = w.timer.C
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-cancel:
		return response{}, w.ctx.Err()
	case <-expire:
		return response{}, context.DeadlineExceeded
	}
}

func (w *queuedWait) stop() {
	if w.timer != nil {
		w.timer.Stop()
	}
}

// Write stores a 64-byte line at a logical line address, blocking while
// the owning shard's queue is full (backpressure) and until the shard has
// processed it.
func (e *Engine) Write(addr uint64, line ecc.Line) (memctrl.WriteOutcome, error) {
	resp, err := e.call(context.Background(), e.ShardOf(addr), request{kind: kWrite, addr: e.localAddr(addr), line: line}, true)
	return resp.write, err
}

// WriteAsync enqueues a write without waiting for its outcome (blocking
// only while the owning shard's queue is full). It always goes through the
// queue, so the shard's worker runs it, never the caller. Per-shard FIFO
// ordering still holds: a later Read of the same address observes the
// write.
func (e *Engine) WriteAsync(addr uint64, line ecc.Line) error {
	sh := e.ShardOf(addr)
	return e.submit(sh, request{kind: kWrite, addr: e.localAddr(addr), line: line}, true)
}

// TryWrite is Write with shedding and a deadline: a full shard queue
// fails immediately with ErrOverloaded, and a ctx expiring while the
// request waits in queue abandons the wait (the shard still executes the
// write; only the caller stops waiting). A write that runs inline on an
// idle shard is neither shed nor abandoned.
func (e *Engine) TryWrite(ctx context.Context, addr uint64, line ecc.Line) (memctrl.WriteOutcome, error) {
	return e.TryWriteTraced(ctx, addr, line, telemetry.TraceCtx{})
}

// TryWriteTraced is TryWrite carrying a request trace context (from
// NewTrace): the shard threads it into the scheme's telemetry hooks
// and the flight recorder, so the write's stage events can be joined back
// to the network request. A nonzero tc.Deadline bounds a queued wait like
// ctx's deadline does, without a context per request.
func (e *Engine) TryWriteTraced(ctx context.Context, addr uint64, line ecc.Line, tc telemetry.TraceCtx) (memctrl.WriteOutcome, error) {
	resp, err := e.call(ctx, e.ShardOf(addr), request{kind: kWrite, addr: e.localAddr(addr), line: line, tc: tc}, false)
	return resp.write, err
}

// ReadResult is a completed read: the plaintext line, whether the
// address was ever written, and the simulated service latency.
type ReadResult struct {
	Data ecc.Line
	Hit  bool
	Lat  sim.Time
}

// Read fetches the plaintext line at a logical address (blocking).
func (e *Engine) Read(addr uint64) (ReadResult, error) {
	resp, err := e.call(context.Background(), e.ShardOf(addr), request{kind: kRead, addr: e.localAddr(addr)}, true)
	return resp.readResult(), err
}

// TryRead is Read with shedding and a deadline (see TryWrite).
func (e *Engine) TryRead(ctx context.Context, addr uint64) (ReadResult, error) {
	return e.TryReadTraced(ctx, addr, telemetry.TraceCtx{})
}

// TryReadTraced is TryRead carrying a request trace context (see
// TryWriteTraced).
func (e *Engine) TryReadTraced(ctx context.Context, addr uint64, tc telemetry.TraceCtx) (ReadResult, error) {
	resp, err := e.call(ctx, e.ShardOf(addr), request{kind: kRead, addr: e.localAddr(addr), tc: tc}, false)
	return resp.readResult(), err
}

// Flush is a full barrier: it waits until every request submitted before
// the call has executed and every shard's device write queue has drained.
func (e *Engine) Flush() error {
	return e.barrier((*shard).flush)
}

// Summary snapshots and merges every shard's counters. It is a barrier
// like Flush: the snapshot is taken in queue order, so it covers every
// request submitted before the call. Its wear figures come from each
// device's incremental health state, so it costs the same however many
// lines the shards have written.
func (e *Engine) Summary() (Summary, error) {
	snaps, err := e.snapshots(false)
	if err != nil {
		return Summary{}, err
	}
	return merge(e, snaps), nil
}

// Snapshots returns the per-shard views behind Summary, each with its
// device's exact wear summary (P99 included).
func (e *Engine) Snapshots() ([]Snapshot, error) {
	return e.snapshots(true)
}

func (e *Engine) snapshots(exactWear bool) ([]Snapshot, error) {
	snaps := make([]Snapshot, len(e.shards))
	if err := e.barrier(func(s *shard) { snaps[s.id] = s.snapshot(exactWear) }); err != nil {
		return nil, err
	}
	return snaps, nil
}

// Barrier calls fn once for every shard with the shard's index, scheme
// and environment, under that shard's owner and after every request
// submitted to the shard before the call, and returns once every call has
// finished. The calls on different shards may run concurrently; fn must
// not retain sch or env, nor call into the engine. It is how a caller
// inspects (the checker's audits) or alters a shard's state between
// requests.
func (e *Engine) Barrier(fn func(id int, sch memctrl.Scheme, env *memctrl.Env)) error {
	return e.barrier(func(s *shard) { fn(s.id, s.sch, s.env) })
}

// barrier queues one kBarrier request carrying fn on every shard, then
// waits for all of them.
func (e *Engine) barrier(fn func(*shard)) error {
	chans := make([]chan response, len(e.shards))
	for i := range e.shards {
		chans[i] = getRespChan()
		if err := e.submit(i, request{kind: kBarrier, fn: fn, done: chans[i]}, true); err != nil {
			// Collect responses already in flight before bailing.
			for j := 0; j < i; j++ {
				<-chans[j]
				putRespChan(chans[j])
			}
			putRespChan(chans[i])
			return err
		}
	}
	for _, ch := range chans {
		<-ch
		putRespChan(ch)
	}
	return nil
}

// Close drains every shard queue, flushes the devices and stops the
// workers. Requests submitted after Close fail with ErrClosed; Close is
// idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, s := range e.shards {
		close(s.reqs)
	}
	e.mu.Unlock()
	e.wg.Wait()
	return nil
}
