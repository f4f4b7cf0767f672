// Package esd is the public API of the ESD simulator: a from-scratch Go
// reproduction of "ESD: An ECC-assisted and Selective Deduplication for
// Encrypted Non-Volatile Main Memory" (HPCA 2023).
//
// The package assembles the internal substrates — a PCM device model with
// banked timing and energy accounting, a (72,64) SEC-DED ECC codec,
// counter-mode encryption, SRAM metadata caches, and five write-path
// schemes (Baseline, Dedup_SHA1, DeWrite, ESD, plus the BCD compression
// extension) — into a System that can be driven request by request or
// replayed from traces, plus the experiment harness that regenerates every
// figure of the paper's evaluation.
//
// Quickstart:
//
//	sys, _ := esd.NewSystem(esd.DefaultConfig(), esd.SchemeESD)
//	line := esd.Line{1, 2, 3}
//	sys.Write(100, line)
//	sys.Write(200, line) // duplicate content: deduplicated by ECC fingerprint
//	got, _ := sys.Read(100)
//
// For paper-scale evaluations use Workload streams and System.Run, or the
// experiment registry via RunExperiment.
package esd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/core"
	"github.com/esdsim/esd/internal/dedup"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/experiments"
	"github.com/esdsim/esd/internal/media"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
	"github.com/esdsim/esd/internal/trace"
	"github.com/esdsim/esd/internal/workload"
)

// Line is a 64-byte cache line, the system's access granularity.
type Line = ecc.Line

// Time is a simulation timestamp/duration in picoseconds.
type Time = sim.Time

// Common duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// Config is the full system configuration (Table I defaults via
// DefaultConfig).
type Config = config.Config

// DefaultConfig returns the paper's Table I configuration.
func DefaultConfig() Config { return config.Default() }

// Scheme names accepted by NewSystem. SchemeBCD is the
// base-and-compressed-difference extension beyond the paper's four.
const (
	SchemeBaseline = experiments.SchemeBaseline
	SchemeSHA1     = experiments.SchemeSHA1
	SchemeDeWrite  = experiments.SchemeDeWrite
	SchemeESD      = experiments.SchemeESD
	SchemeBCD      = experiments.SchemeBCD
	// SchemeESDCaram runs the ESD write path on a content-aware hybrid
	// DRAM/PCM media tier (CARAM): hot and duplicate-heavy lines buffer
	// in DRAM, cold uniques live in PCM, and a rotating write-ahead log
	// in PCM makes every acknowledged write crash-durable.
	SchemeESDCaram = experiments.SchemeESDCaram
)

// SchemeNames lists the four schemes in canonical order.
func SchemeNames() []string { return experiments.Schemes() }

// HybridStats is the hybrid DRAM/PCM tier's activity snapshot (scheme
// ESD+CARAM): DRAM hit/miss split, promotion/demotion traffic, WAL
// appends, and buffer occupancy.
type HybridStats = media.HybridStats

// WriteOutcome reports how the scheme handled one write.
type WriteOutcome = memctrl.WriteOutcome

// ReadOutcome reports one demand read.
type ReadOutcome = memctrl.ReadOutcome

// RunResult aggregates a trace replay's measurements.
type RunResult = memctrl.RunResult

// SchemeStats are the scheme-level event counters.
type SchemeStats = memctrl.SchemeStats

// WearSummary summarizes per-line device wear (endurance).
type WearSummary = nvm.WearSummary

// Device-health types: the always-on O(1) accounting the device keeps
// alongside its wear map — scalar summary, full snapshot with per-bank
// and per-region rows, and the log2 wear histogram buckets. All are safe
// to read while a ShardedSystem's workers are driving the devices.
type (
	DeviceHealthSummary  = nvm.HealthSummary
	DeviceHealthSnapshot = nvm.HealthSnapshot
	BankHealth           = nvm.BankHealth
	RegionHealth         = nvm.RegionHealth
	WearBucket           = nvm.WearBucket
)

// MergeDeviceHealth merges per-shard health snapshots into one
// device-wide view (banks and regions renumbered in shard order).
func MergeDeviceHealth(snaps []DeviceHealthSnapshot) DeviceHealthSnapshot {
	return nvm.MergeHealth(snaps)
}

// Record is one trace event; Stream yields records in time order.
type (
	Record = trace.Record
	Stream = trace.Stream
)

// Trace ops.
const (
	OpRead  = trace.OpRead
	OpWrite = trace.OpWrite
)

// Profile describes one synthetic application workload.
type Profile = workload.Profile

// Profiles returns the 20 SPEC CPU 2017 / PARSEC application profiles.
func Profiles() []Profile { return workload.Profiles() }

// ProfileByName looks up an application profile.
func ProfileByName(name string) (Profile, bool) { return workload.ByName(name) }

// WorkloadStream builds a deterministic synthetic trace of n records for
// the named application.
func WorkloadStream(app string, seed uint64, n int) (Stream, error) {
	p, ok := workload.ByName(app)
	if !ok {
		return nil, fmt.Errorf("esd: unknown application %q (have %v)", app, workload.Names())
	}
	return workload.Stream(p, seed, n), nil
}

// MixStream builds a multi-programmed workload: the named applications
// share the memory controller, merged in time order with disjoint address
// regions.
func MixStream(seed uint64, n int, apps ...string) (Stream, error) {
	s, err := workload.Mix(seed, n, apps...)
	if err != nil {
		return nil, fmt.Errorf("esd: %w", err)
	}
	return s, nil
}

// ExperimentOptions parameterizes RunExperiment campaigns.
type ExperimentOptions = experiments.Options

// DefaultExperimentOptions returns a campaign sized for interactive use.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Experiments lists the available experiment ids (fig1..fig19, ablations).
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one of the paper's figures/tables.
func RunExperiment(name string, opts ExperimentOptions) (*stats.Table, error) {
	return experiments.Run(name, opts)
}

// System is an encrypted, deduplicating NVMM behind one scheme: the
// simulated memory controller plus PCM device, driven either request by
// request (Write/Read) or by trace replay (Run).
//
// A System is not safe for concurrent use.
type System struct {
	// own is the owner lock, taken only with telemetry on: every call
	// that drives the scheme holds it (lock, unlock), so a metrics render
	// that takes it knows the System is idle and can publish the sink's
	// staged values itself.
	own sync.Mutex

	cfg    Config
	env    *memctrl.Env
	scheme memctrl.Scheme
	ctl    *memctrl.Controller
	tel    *telemetry.Sink

	now Time
	// IssueGap is the simulated time advanced between self-clocked
	// Write/Read calls.
	IssueGap Time

	// reqSeq numbers Write/Read calls so flight-recorder entries and trace
	// events carry a stable per-request trace id.
	reqSeq uint64

	// lineBuf is the scratch line Write/WriteAt hand to the scheme. The
	// Scheme interface takes *Line, so a pointer to the parameter itself
	// would escape and heap-allocate a 64-byte copy per write; a System is
	// single-threaded by contract, so one buffer serves every call.
	lineBuf Line

	// batchOps is WriteBatch's reusable scratch, so steady-state batched
	// writes allocate nothing.
	batchOps []memctrl.BatchWrite
}

// SystemOption configures optional System features (telemetry) at
// construction. Telemetry must be wired before the scheme exists so that
// the scheme's constructors register the counts their caches (the EFIT,
// fingerprint caches, the AMT cache) keep, which is why these are
// NewSystem options rather than setters.
type SystemOption func(*sysOptions)

type sysOptions struct {
	metrics     bool
	traceW      io.Writer
	traceFormat telemetry.Format
	sampleEvery int
	flightSlots int
}

func (o *sysOptions) enabled() bool { return o.metrics || o.traceW != nil || o.flightSlots > 0 }

// WithMetrics enables the telemetry metrics registry: live counters, gauges
// and latency histograms for every layer, exposed via WriteMetrics,
// WriteMetricsJSON and ServeMetrics.
func WithMetrics() SystemOption {
	return func(o *sysOptions) { o.metrics = true }
}

// WithEventTrace streams sampled write-path events to w as JSONL (one JSON
// object per line; decode with ReadTraceEvents). Implies WithMetrics.
func WithEventTrace(w io.Writer) SystemOption {
	return func(o *sysOptions) { o.traceW = w; o.traceFormat = telemetry.FormatJSONL }
}

// WithChromeTrace streams sampled write-path events to w as a Chrome
// trace_event JSON array, loadable in chrome://tracing or Perfetto.
// Implies WithMetrics.
func WithChromeTrace(w io.Writer) SystemOption {
	return func(o *sysOptions) { o.traceW = w; o.traceFormat = telemetry.FormatChrome }
}

// WithTraceSampling emits only every n-th write/read event to the trace
// (rare events — evictions, crashes, run markers — are always emitted).
// n <= 1 traces every request.
func WithTraceSampling(n int) SystemOption {
	return func(o *sysOptions) { o.sampleEvery = n }
}

// WithFlightRecorder enables the always-on flight recorder: a fixed ring
// of the last slots requests (their trace ids, outcomes and per-stage
// latencies), staged in plain memory on the hot path and published when
// read, so FlightRecords returns every request completed before it — the
// black box to read after something went wrong. slots is rounded up to a
// power of two; slots <= 0 picks the default (256).
func WithFlightRecorder(slots int) SystemOption {
	return func(o *sysOptions) {
		if slots <= 0 {
			slots = telemetry.DefaultFlightSlots
		}
		o.flightSlots = slots
	}
}

// NewSystem builds a System running the named scheme. The configuration is
// validated. Options enable telemetry; with none, every instrumentation
// hook stays nil and the hot path pays a single predictable branch.
func NewSystem(cfg Config, scheme string, opts ...SystemOption) (*System, error) {
	if msg := cfg.Validate(); msg != "" {
		return nil, fmt.Errorf("esd: %s", msg)
	}
	var o sysOptions
	for _, fn := range opts {
		fn(&o)
	}
	env := memctrl.NewEnv(cfg)
	var tel *telemetry.Sink
	if o.enabled() {
		var tracer *telemetry.Tracer
		if o.traceW != nil {
			tracer = telemetry.NewTracer(o.traceW, o.traceFormat)
		}
		var flight *telemetry.FlightRecorder
		if o.flightSlots > 0 {
			flight = telemetry.NewFlightRecorder(o.flightSlots)
		}
		tel = telemetry.NewSink(telemetry.Options{Tracer: tracer, SampleEvery: o.sampleEvery, Flight: flight})
		env.AttachTelemetry(tel)
	}
	sch, err := experiments.NewScheme(env, scheme)
	if err != nil {
		return nil, fmt.Errorf("esd: %w", err)
	}
	s := &System{
		cfg:      cfg,
		env:      env,
		scheme:   sch,
		ctl:      memctrl.NewController(env, sch),
		tel:      tel,
		IssueGap: 10 * Nanosecond,
	}
	if tel != nil {
		tel.Registry().SetPublish(s.publish)
	}
	return s, nil
}

// publish brings the sink's published telemetry — the registry and the
// flight recorder — up to date for a reader on any goroutine: under the
// owner lock when the System is idle, or else by the call that holds it,
// as it returns or, mid-Run, at the replay loop's next record.
func (s *System) publish() {
	s.tel.Await(&s.own, time.Now().Add(telemetry.PublishWait))
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// SchemeName returns the active scheme's name.
func (s *System) SchemeName() string { return s.scheme.Name() }

// Now returns the system's self-advanced clock.
func (s *System) Now() Time { return s.now }

func (s *System) tick() Time {
	s.now += s.IssueGap
	return s.now
}

// lock takes the owner lock for a call that drives the scheme. Without
// telemetry nothing renders concurrently, so there is nothing to guard.
func (s *System) lock() {
	if s.tel != nil {
		s.own.Lock()
	}
}

// unlock ends a call taken with lock. It is the publication point of a
// System driven call by call: a render waiting on the owner lock is
// served here, so it lags by at most the call in flight.
func (s *System) unlock() {
	if s.tel != nil {
		s.tel.PublishIfAsked()
		s.own.Unlock()
	}
}

// Write stores a 64-byte line at a logical line address, advancing the
// internal clock. It returns the scheme's outcome (latency, whether the
// line was deduplicated, the backing physical line).
//
// Write is NOT safe for concurrent use: the scheme's metadata caches and
// the device model are single-threaded, mirroring one memory controller
// pipeline. Concurrent callers must use NewShardedSystem, which partitions
// the address space across independently locked shards.
func (s *System) Write(addr uint64, line Line) WriteOutcome {
	s.lock()
	defer s.unlock()
	at := s.tick()
	s.reqSeq++
	s.tel.BeginRequest(telemetry.TraceCtx{TraceID: s.reqSeq, Span: 1, StartNs: int64(at)})
	s.lineBuf = line
	out := s.scheme.Write(addr, &s.lineBuf, at)
	if out.Done > s.now {
		s.now = out.Done
	}
	return out
}

// WriteBatchOp is one write in a batched write call (System.WriteBatch,
// ShardedSystem.WriteBatch): the caller fills Addr and Line, the system
// fills Out, Lat and (sharded only) Err.
type WriteBatchOp = shard.WriteBatchOp

// WriteBatch stores every op in one call through the scheme's batched
// write path: the per-op dedup decisions are identical to N scalar
// Writes in the same order, but ECC fingerprints are computed in one
// batched pass and the pads of unique stores come from one multi-block
// AES pass, so the amortized cost per line drops. All ops arrive before
// any completes (one arrival group), so per-op latencies can differ from
// the scalar path; decisions, placements, counters and statistics do
// not. The batch shares one trace id. Err is always nil on a System.
//
// Like Write, WriteBatch is NOT safe for concurrent use.
func (s *System) WriteBatch(ops []WriteBatchOp) {
	if len(ops) == 0 {
		return
	}
	s.lock()
	defer s.unlock()
	if cap(s.batchOps) < len(ops) {
		s.batchOps = make([]memctrl.BatchWrite, len(ops))
	}
	b := s.batchOps[:len(ops)]
	s.reqSeq++
	s.tel.BeginRequest(telemetry.TraceCtx{TraceID: s.reqSeq, Span: 1, StartNs: int64(s.now + s.IssueGap)})
	for i := range ops {
		b[i] = memctrl.BatchWrite{Logical: ops[i].Addr, Data: &ops[i].Line, At: s.tick()}
	}
	memctrl.WriteBatch(s.scheme, b)
	for i := range b {
		if b[i].Out.Done > s.now {
			s.now = b[i].Out.Done
		}
		ops[i].Out = b[i].Out
		ops[i].Lat = b[i].Out.Done - b[i].At
		ops[i].Err = nil
	}
}

// WriteAt is Write with an explicit arrival time (must not precede the
// internal clock, which it advances).
func (s *System) WriteAt(addr uint64, line Line, at Time) WriteOutcome {
	s.lock()
	defer s.unlock()
	if at > s.now {
		s.now = at
	}
	s.reqSeq++
	s.tel.BeginRequest(telemetry.TraceCtx{TraceID: s.reqSeq, Span: 1, StartNs: int64(s.now)})
	s.lineBuf = line
	out := s.scheme.Write(addr, &s.lineBuf, s.now)
	if out.Done > s.now {
		s.now = out.Done
	}
	return out
}

// Read fetches the plaintext line at a logical address, advancing the
// internal clock. Hit reports whether the address was ever written.
//
// Like Write, Read is NOT safe for concurrent use — see NewShardedSystem
// for a goroutine-safe front.
func (s *System) Read(addr uint64) (Line, ReadOutcome) {
	s.lock()
	defer s.unlock()
	at := s.tick()
	s.reqSeq++
	s.tel.BeginRequest(telemetry.TraceCtx{TraceID: s.reqSeq, Span: 1, StartNs: int64(at)})
	out := s.scheme.Read(addr, at)
	if out.Done > s.now {
		s.now = out.Done
	}
	return out.Data, out
}

// Run replays a trace stream through the scheme and returns aggregated
// metrics. Run may be called once per System; build a fresh System per
// replay for independent measurements.
func (s *System) Run(stream Stream) (*RunResult, error) {
	s.lock()
	defer s.unlock()
	return s.ctl.Run(stream)
}

// RunWorkload replays n records of the named application profile.
func (s *System) RunWorkload(app string, seed uint64, n int) (*RunResult, error) {
	stream, err := WorkloadStream(app, seed, n)
	if err != nil {
		return nil, err
	}
	return s.Run(stream)
}

// SetWarmup makes the first n records of a subsequent Run unmeasured
// warm-up traffic.
func (s *System) SetWarmup(n int) { s.ctl.Warmup = n }

// SetVerifyReads enables the read-back oracle: Run fails with an error if
// any read returns data that differs from the latest write to that address
// (i.e. if deduplication ever corrupted data).
func (s *System) SetVerifyReads(v bool) { s.ctl.VerifyReads = v }

// Crash simulates a power failure (§III-E): eADR drains dirty metadata to
// NVMM and all volatile SRAM state — fingerprint caches, ESD's entire
// EFIT, predictors, hot-entry caches — is lost. Data written before the
// crash remains fully readable; deduplication simply restarts cold.
func (s *System) Crash() {
	s.lock()
	defer s.unlock()
	s.crash()
}

// crash is Crash for a caller already inside a call that holds the owner
// lock, such as a step hook firing inside a write.
func (s *System) crash() {
	if c, ok := s.scheme.(memctrl.Crasher); ok {
		c.Crash(s.now)
	}
	s.tel.OnCrash(s.now)
}

// ErrTelemetryDisabled is returned by telemetry accessors on a System built
// without WithMetrics or a trace option.
var ErrTelemetryDisabled = errors.New("esd: telemetry not enabled (pass WithMetrics or a trace option to NewSystem)")

// TelemetryEnabled reports whether the System was built with telemetry.
func (s *System) TelemetryEnabled() bool { return s.tel != nil }

// WriteMetrics renders the current metrics in the Prometheus text
// exposition format (the same payload ServeMetrics serves at /metrics).
func (s *System) WriteMetrics(w io.Writer) error {
	if s.tel == nil {
		return ErrTelemetryDisabled
	}
	return s.tel.Registry().WritePrometheus(w)
}

// WriteMetricsJSON renders the current metrics as a flat expvar-style JSON
// object (the /debug/vars payload).
func (s *System) WriteMetricsJSON(w io.Writer) error {
	if s.tel == nil {
		return ErrTelemetryDisabled
	}
	return s.tel.Registry().WriteJSON(w)
}

// MetricsServer is a live telemetry HTTP endpoint serving /metrics
// (Prometheus text format), /debug/vars (JSON) and, when enabled,
// /debug/pprof.
type MetricsServer struct{ srv *telemetry.Server }

// Addr returns the bound listen address (host:port).
func (m *MetricsServer) Addr() string { return m.srv.Addr() }

// URL returns the server's base URL.
func (m *MetricsServer) URL() string { return m.srv.URL() }

// Close shuts the server down immediately, dropping in-flight scrapes.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// Shutdown gracefully stops the server: it stops accepting new
// connections and waits for in-flight scrapes to finish, up to ctx's
// deadline (after which remaining connections are force-closed and
// ctx.Err() is returned).
func (m *MetricsServer) Shutdown(ctx context.Context) error { return m.srv.Shutdown(ctx) }

// ServeMetrics starts a background HTTP server on addr (":0" picks a free
// port; use Addr to discover it) exposing this System's live metrics.
// enablePprof additionally mounts net/http/pprof under /debug/pprof/.
// With WithFlightRecorder, /debug/flightrecorder serves the current ring.
func (s *System) ServeMetrics(addr string, enablePprof bool) (*MetricsServer, error) {
	if s.tel == nil {
		return nil, ErrTelemetryDisabled
	}
	opts := telemetry.ServerOptions{Addr: addr, Pprof: enablePprof}
	if s.tel.Flight() != nil {
		opts.Flight = s.FlightRecords
	}
	// The wear/energy half of the document reads under the device's health
	// lock (and may trail the sim thread by one staged batch); the dedup
	// counters are sampled without synchronization. On a System scraped
	// while the (single) sim thread is writing, both may trail by a few
	// events.
	opts.Device = func() any {
		resp := server.DeviceFromHealth(s.SchemeName(),
			[]DeviceHealthSnapshot{s.env.Device.HealthSnapshot()}, s.scheme.Stats())
		if h := s.env.Hybrid(); h != nil {
			resp.Hybrid = server.HybridFromStats(h.Snapshot())
		}
		return resp
	}
	srv, err := telemetry.NewServer(s.tel.Registry(), opts)
	if err != nil {
		return nil, fmt.Errorf("esd: %w", err)
	}
	return &MetricsServer{srv: srv}, nil
}

// FlightRecord is one decoded record, as a flight recorder's dump and an
// event trace hold it: the trace id, the kind (a request, or a rare event
// in a trace) and its outcome, its time on the simulated clock, and (for
// writes) the per-stage latency decomposition.
type FlightRecord = telemetry.Record

// TraceCtx is the request-scoped trace context threaded through the write
// and read paths; the zero value means "untraced".
type TraceCtx = telemetry.TraceCtx

// FlightRecords snapshots the flight-recorder ring, oldest first. It
// returns nil unless the System was built with WithFlightRecorder. Safe to
// call from any goroutine: like a metrics render, it first publishes the
// records the System's calls staged, so it includes every call completed
// before it.
func (s *System) FlightRecords() []FlightRecord {
	if s.tel.Flight() == nil {
		return nil
	}
	s.publish()
	return s.tel.Flight().Snapshot()
}

// SetSlowRequestLog enables slow-request logging during Run: every replayed
// request whose simulated latency reaches threshold is printed to w with
// its trace id and stage breakdown. max caps the number of lines (0 =
// unlimited). Pass a nil writer to disable.
func (s *System) SetSlowRequestLog(w io.Writer, threshold Time, max int) {
	s.ctl.SlowLog = w
	s.ctl.SlowThreshold = threshold
	s.ctl.SlowMax = max
}

// ReadTraceEvents decodes a JSONL event trace written via WithEventTrace —
// one record per line — back into records.
func ReadTraceEvents(r io.Reader) ([]FlightRecord, error) {
	return telemetry.ReadRecords(r)
}

// CloseTrace renders the records still staged for the event trace,
// finalizes it (for Chrome format, the closing bracket) and flushes it to
// the underlying writer, returning the first error the tracer
// encountered. It is a no-op without an active trace.
func (s *System) CloseTrace() error {
	s.lock()
	defer s.unlock()
	return s.tel.CloseTrace()
}

// Stats returns the scheme's event counters.
func (s *System) Stats() SchemeStats { return s.scheme.Stats() }

// Wear returns the device's endurance summary. System is single-threaded,
// so the caller is the simulation thread and staged health accounting can
// be published first — the summary is always exact.
func (s *System) Wear() WearSummary {
	s.env.Device.SyncHealth()
	return s.env.Device.Wear()
}

// DeviceHealth returns the device's full health snapshot: totals, wear
// shape (max/p99/histogram), energy split, and per-bank/per-region rows.
// Like Wear, it publishes staged accounting first and is always exact.
func (s *System) DeviceHealth() DeviceHealthSnapshot {
	s.env.Device.SyncHealth()
	return s.env.Device.HealthSnapshot()
}

// Energy returns total energy consumed so far in nJ (scheme + media).
func (s *System) Energy() float64 {
	return s.env.Energy.Total() + s.env.Device.MediaStats().MediaEnergy
}

// MetadataNVMM returns the scheme's NVMM-resident metadata footprint in
// bytes.
func (s *System) MetadataNVMM() int64 { return s.scheme.MetadataNVMM() }

// DeviceWrites returns the number of media writes performed (data and
// metadata).
func (s *System) DeviceWrites() uint64 { return s.env.Device.MediaStats().Writes }

// HybridStats returns the hybrid DRAM/PCM tier's activity snapshot; ok is
// false when the system's media is plain PCM (every scheme except
// ESD+CARAM).
func (s *System) HybridStats() (HybridStats, bool) {
	h := s.env.Hybrid()
	if h == nil {
		return HybridStats{}, false
	}
	return h.Snapshot(), true
}

// Flow-control errors surfaced by ShardedSystem.
var (
	// ErrOverloaded reports a Try* request shed because the target shard's
	// queue was full.
	ErrOverloaded = shard.ErrOverloaded
	// ErrClosed reports a request submitted after ShardedSystem.Close.
	ErrClosed = shard.ErrClosed
)

// ReadResult is a completed sharded read: the plaintext line, whether the
// address was ever written, and the simulated service latency.
type ReadResult = shard.ReadResult

// ShardSnapshot is one shard's view of its counters.
type ShardSnapshot = shard.Snapshot

// ShardSummary merges per-shard snapshots into aggregate counters shaped
// like the single-shard System's reports.
type ShardSummary = shard.Summary

// ShardReplayResult reports a sharded trace replay.
type ShardReplayResult = shard.ReplayResult

// ShardOption configures a ShardedSystem at construction.
type ShardOption func(*shard.Options)

// WithShards sets the number of independent shards (default 1). Logical
// address a routes to shard a mod n; each shard owns 1/n of the device
// capacity as its private bank group.
func WithShards(n int) ShardOption {
	return func(o *shard.Options) { o.Shards = n }
}

// WithShardQueueDepth bounds each shard's request queue (default 128). A
// full queue blocks Write/Read and sheds TryWrite/TryRead with
// ErrOverloaded.
func WithShardQueueDepth(n int) ShardOption {
	return func(o *shard.Options) { o.QueueDepth = n }
}

// WithShardBatching sets how many queued requests a shard worker drains
// per wakeup (default 32).
func WithShardBatching(n int) ShardOption {
	return func(o *shard.Options) { o.Batch = n }
}

// WithShardMetrics enables per-shard telemetry sinks on one shared
// registry; every metric carries a shard="i" label. See
// ShardedSystem.WriteMetrics.
func WithShardMetrics() ShardOption {
	return func(o *shard.Options) { o.Metrics = true }
}

// WithStageTracing enables per-stage latency histograms on every shard
// (fingerprint, EFIT lookup, NVM read-verify, encrypt, media, AMT, queue
// wait), summarized as p50/p99 by StageLatencies and the serving
// front-end's /statusz. The histograms are recorded by the shard's owner
// without allocation, so the steady-state write path stays alloc-free.
func WithStageTracing() ShardOption {
	return func(o *shard.Options) { o.Tracing = true }
}

// WithShardFlightSlots sizes each shard's always-on flight-recorder ring
// (default 256 entries, rounded up to a power of two).
func WithShardFlightSlots(n int) ShardOption {
	return func(o *shard.Options) { o.FlightSlots = n }
}

// ShardedSystem is the goroutine-safe counterpart of System: it
// partitions the line-address space across N independent shards (each its
// own scheme instance, metadata caches and PCM bank group) driven by one
// worker goroutine per shard behind bounded queues; a call that finds its
// shard idle runs on the caller instead. Any number of goroutines may call
// its methods concurrently; requests to the same shard execute in
// submission order.
//
// Deduplication happens only within a shard — cross-shard duplicate
// content occupies one physical line per shard. See DESIGN.md §7 for the
// rationale and the determinism contract.
type ShardedSystem struct {
	eng *shard.Engine
}

// NewShardedSystem builds a sharded engine running the named scheme on
// every shard.
func NewShardedSystem(cfg Config, scheme string, opts ...ShardOption) (*ShardedSystem, error) {
	var o shard.Options
	for _, fn := range opts {
		fn(&o)
	}
	eng, err := shard.New(cfg, scheme, o)
	if err != nil {
		return nil, fmt.Errorf("esd: %w", err)
	}
	return &ShardedSystem{eng: eng}, nil
}

// NumShards returns the shard count.
func (s *ShardedSystem) NumShards() int { return s.eng.NumShards() }

// SchemeName returns the scheme every shard runs.
func (s *ShardedSystem) SchemeName() string { return s.eng.SchemeName() }

// Write stores a line, blocking while the owning shard's queue is full
// and until the shard has processed it. Safe for concurrent use.
func (s *ShardedSystem) Write(addr uint64, line Line) (WriteOutcome, error) {
	return s.eng.Write(addr, line)
}

// TryWrite is Write with load shedding (ErrOverloaded on a full queue)
// and a deadline (ctx expiring while queued abandons the wait; the shard
// still executes the write).
func (s *ShardedSystem) TryWrite(ctx context.Context, addr uint64, line Line) (WriteOutcome, error) {
	return s.eng.TryWrite(ctx, addr, line)
}

// WriteBatch stores every op in one call: ops are grouped by owning
// shard, each touched shard receives one sub-batch (at most one channel
// round trip per shard instead of one per op), and each sub-batch runs
// through the scheme's batched write path. Per-op results land in ops;
// see shard.Engine.WriteBatch for the error contract.
func (s *ShardedSystem) WriteBatch(ops []WriteBatchOp) error {
	return s.eng.WriteBatch(ops)
}

// TryWriteBatch is WriteBatch with load shedding and a deadline: ops on
// a full shard fail individually with ErrOverloaded, and ctx expiring
// mid-flight abandons the wait (the shards still execute the writes).
func (s *ShardedSystem) TryWriteBatch(ctx context.Context, ops []WriteBatchOp) error {
	return s.eng.TryWriteBatch(ctx, ops)
}

// TryWriteBatchTraced is TryWriteBatch carrying an explicit trace
// context shared by every op of the batch.
func (s *ShardedSystem) TryWriteBatchTraced(ctx context.Context, ops []WriteBatchOp, tc TraceCtx) error {
	return s.eng.TryWriteBatchTraced(ctx, ops, tc)
}

// Read fetches the plaintext line at a logical address (blocking).
func (s *ShardedSystem) Read(addr uint64) (ReadResult, error) {
	return s.eng.Read(addr)
}

// ReadBatchOp is one read in a ShardedSystem.ReadBatch call: the caller
// fills Addr, the system fills Res and Err.
type ReadBatchOp = shard.ReadBatchOp

// ReadBatch reads every op in one call, grouped by owning shard like
// WriteBatch: one queue round trip per touched shard, and each read runs
// as it would alone. Per-op results land in ops; see shard.Engine.ReadBatch
// for the error contract.
func (s *ShardedSystem) ReadBatch(ops []ReadBatchOp) error {
	return s.eng.ReadBatch(ops)
}

// TryRead is Read with load shedding and a deadline (see TryWrite).
func (s *ShardedSystem) TryRead(ctx context.Context, addr uint64) (ReadResult, error) {
	return s.eng.TryRead(ctx, addr)
}

// Flush is a full barrier: every request submitted before the call has
// executed and every shard's device write queue has drained on return.
func (s *ShardedSystem) Flush() error { return s.eng.Flush() }

// Summary snapshots and merges every shard's counters (a barrier like
// Flush).
func (s *ShardedSystem) Summary() (ShardSummary, error) { return s.eng.Summary() }

// Snapshots returns the per-shard views behind Summary.
func (s *ShardedSystem) Snapshots() ([]ShardSnapshot, error) { return s.eng.Snapshots() }

// Run replays a trace stream, routing each record to its owning shard,
// and returns the merged result. Arrival timestamps are ignored (each
// shard self-clocks).
func (s *ShardedSystem) Run(stream Stream) (*ShardReplayResult, error) {
	return s.eng.Replay(stream)
}

// Shed returns the number of Try* requests rejected with ErrOverloaded.
func (s *ShardedSystem) Shed() uint64 { return s.eng.Shed() }

// DeviceHealths returns each shard device's health snapshot, in shard
// order. Unlike Summary this is barrier-free: it never blocks the shard
// workers and is safe to call at any time from any goroutine.
func (s *ShardedSystem) DeviceHealths() []DeviceHealthSnapshot { return s.eng.DeviceHealths() }

// DeviceHealth merges the per-shard snapshots into one device-wide view
// (barrier-free; see DeviceHealths).
func (s *ShardedSystem) DeviceHealth() DeviceHealthSnapshot { return s.eng.DeviceHealth() }

// WearSummaries returns each shard device's exact wear summary
// (barrier-free; each summary is consistent per shard).
func (s *ShardedSystem) WearSummaries() []WearSummary { return s.eng.WearSummaries() }

// HybridStats sums the per-shard hybrid DRAM/PCM tier statistics; ok is
// false when the media is plain PCM. Barrier-free: each shard's snapshot
// is atomics-based and never blocks the workers.
func (s *ShardedSystem) HybridStats() (HybridStats, bool) { return s.eng.HybridStats() }

// LiveStats merges the scheme counter blocks the shards republish after
// every drained batch and every inline request. Unlike Summary it is barrier-free — the
// result trails the live state by at most one batch per shard.
func (s *ShardedSystem) LiveStats() SchemeStats { return s.eng.LiveSchemeStats() }

// NewTrace allocates a fresh request-scoped trace context. Pass it to
// TryWriteTraced/TryReadTraced so the request's flight-recorder entries
// and slow-request log lines share one id.
func (s *ShardedSystem) NewTrace() TraceCtx { return s.eng.NewTrace() }

// TryWriteTraced is TryWrite carrying an explicit trace context.
func (s *ShardedSystem) TryWriteTraced(ctx context.Context, addr uint64, line Line, tc TraceCtx) (WriteOutcome, error) {
	return s.eng.TryWriteTraced(ctx, addr, line, tc)
}

// TryReadTraced is TryRead carrying an explicit trace context.
func (s *ShardedSystem) TryReadTraced(ctx context.Context, addr uint64, tc TraceCtx) (ReadResult, error) {
	return s.eng.TryReadTraced(ctx, addr, tc)
}

// FlightRecords merges every shard's flight-recorder ring into one slice
// (oldest first within each shard). The rings are always on; this is safe
// to call at any time from any goroutine and never blocks the workers.
func (s *ShardedSystem) FlightRecords() []FlightRecord { return s.eng.FlightRecords() }

// StageLatency summarizes one write-path stage's latency distribution
// (simulated nanoseconds), as a node's /statusz serves it.
type StageLatency = telemetry.LatencySummary

// StageLatencies merges the per-shard stage histograms and summarizes each
// stage that has observations, keyed by stage name. ok is false unless the
// system was built with WithStageTracing.
func (s *ShardedSystem) StageLatencies() (map[string]StageLatency, bool) {
	hists, ok := s.eng.StageSnapshot()
	if !ok {
		return nil, false
	}
	return telemetry.Summarize[telemetry.Stage](hists[:]), true
}

// TelemetryEnabled reports whether the system was built with
// WithShardMetrics.
func (s *ShardedSystem) TelemetryEnabled() bool { return s.eng.Registry() != nil }

// WriteMetrics renders the current per-shard metrics in the Prometheus
// text exposition format.
func (s *ShardedSystem) WriteMetrics(w io.Writer) error {
	reg := s.eng.Registry()
	if reg == nil {
		return ErrTelemetryDisabled
	}
	return reg.WritePrometheus(w)
}

// ServeMetrics starts a background HTTP server exposing the per-shard
// metrics (see System.ServeMetrics), plus /debug/flightrecorder (the
// merged shard rings) and a /statusz with queue depths and stage
// latencies. Requires WithShardMetrics.
func (s *ShardedSystem) ServeMetrics(addr string, enablePprof bool) (*MetricsServer, error) {
	reg := s.eng.Registry()
	if reg == nil {
		return nil, ErrTelemetryDisabled
	}
	srv, err := telemetry.NewServer(reg, telemetry.ServerOptions{
		Addr:   addr,
		Pprof:  enablePprof,
		Flight: s.eng.FlightRecords,
		Device: func() any {
			resp := server.DeviceFromHealth(s.eng.SchemeName(), s.eng.DeviceHealths(), s.eng.LiveSchemeStats())
			if hs, ok := s.eng.HybridStats(); ok {
				resp.Hybrid = server.HybridFromStats(hs)
			}
			return resp
		},
		Status: func() any {
			st := struct {
				Scheme      string                  `json:"scheme"`
				Shards      int                     `json:"shards"`
				QueueDepths []int                   `json:"queue_depths"`
				QueueCap    int                     `json:"queue_cap"`
				Shed        uint64                  `json:"shed_requests"`
				Tracing     bool                    `json:"tracing"`
				Stages      map[string]StageLatency `json:"stages,omitempty"`
			}{
				Scheme:      s.eng.SchemeName(),
				Shards:      s.eng.NumShards(),
				QueueDepths: s.eng.QueueLens(),
				QueueCap:    s.eng.QueueCap(),
				Shed:        s.eng.Shed(),
				Tracing:     s.eng.TracingEnabled(),
			}
			st.Stages, _ = s.StageLatencies()
			return st
		},
	})
	if err != nil {
		return nil, fmt.Errorf("esd: %w", err)
	}
	return &MetricsServer{srv: srv}, nil
}

// Close drains every shard queue, flushes the devices and stops the
// workers. Requests submitted after Close fail with ErrClosed; Close is
// idempotent.
func (s *ShardedSystem) Close() error { return s.eng.Close() }

// Compile-time checks that the schemes satisfy the Scheme interface.
var (
	_ memctrl.Scheme = (*dedup.Baseline)(nil)
	_ memctrl.Scheme = (*dedup.SHA1)(nil)
	_ memctrl.Scheme = (*dedup.DeWrite)(nil)
	_ memctrl.Scheme = (*core.ESD)(nil)
)
