package shard

import (
	"sync"
	"sync/atomic"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// kind is the request discriminator on the shard queues.
type kind uint8

const (
	kWrite kind = iota
	kRead
	kFlush      // drain the shard's device write queue
	kSnap       // snapshot the shard's counters
	kWriteBatch // a pre-grouped sub-batch of writes (Engine.WriteBatch)
	kReadBatch  // a pre-grouped sub-batch of reads (Engine.ReadBatch)
)

// request is one unit of work on a shard queue. done (buffered, capacity
// 1) receives the response; a nil done is fire-and-forget (used by trace
// replay, which only needs the aggregate counters).
type request struct {
	kind kind
	addr uint64 // shard-local line address
	line ecc.Line
	tc   telemetry.TraceCtx // request-scoped trace context (zero = untraced)
	done chan response

	// batch carries a kWriteBatch or kReadBatch sub-batch; the worker
	// writes outcomes into it in place (the done send publishes them to
	// the caller).
	batch *subBatch
}

type response struct {
	write memctrl.WriteOutcome
	read  memctrl.ReadOutcome
	lat   sim.Time // simulated service latency (write/read)
	snap  *Snapshot
}

// readResult is a read response as Engine.Read returns it.
func (r *response) readResult() ReadResult {
	return ReadResult{Data: r.read.Data, Hit: r.read.Hit, Lat: r.lat}
}

// shard is one independent partition: a scheme instance plus its private
// environment (EFIT, AMT, counter cache, bank group), with one owner at a
// time: the worker goroutine while it executes a drained batch, or a
// caller running its request inline on an idle shard (Engine.start). Fields
// below own are the owner's alone except flight, stages, coalesced and
// pubStats, which are concurrency-safe and read live by the
// introspection endpoints (no barrier required). The telemetry sink
// (env.Tel) and stages stage their samples in owner memory; a reader gets
// them published through pub (Engine.publish).
type shard struct {
	id   int
	reqs chan request
	// pending counts requests submitted to reqs and not yet executed: it
	// rises before the send and falls after the worker's batch. A caller
	// may run inline only while it is zero, so no request overtakes one
	// submitted before it.
	pending atomic.Int64
	// own is the owner lock. The worker holds it around each drained
	// batch; an inline caller takes it with TryLock, after Engine.mu.
	own sync.Mutex
	// inline is the owner's scratch copy of an inline request: exec's
	// request escapes into the scheme, so a caller-local one would be
	// heap-allocated per call.
	inline request
	// pub is the publication handshake: a reader that cannot take own
	// asks, and the owner publishes its telemetry at its next
	// publishStats.
	pub telemetry.Publisher

	env      *memctrl.Env
	sch      memctrl.Scheme
	gap      sim.Time
	batch    int
	coalesce bool
	// batchKernels routes runs of consecutive drained writes through the
	// scheme's batched write path (Options.BatchKernels).
	batchKernels bool

	now      sim.Time
	interval sim.Time
	nextTick sim.Time

	// runIdx/runOps are execBatched's reusable scratch: the request
	// indices of the pending write run and the memctrl batch built from
	// them.
	runIdx []int
	runOps []memctrl.BatchWrite

	writeHist stats.Histogram
	readHist  stats.Histogram
	coalesced atomic.Uint64

	// pubStats is a copy of the scheme's counter block, republished after
	// every drained batch and inline request: the barrier-free view behind
	// the /statusz rates and /debug/device's dedup effectiveness (a wedged
	// shard must not make the serving endpoints hang on a barrier).
	statsMu  sync.Mutex
	pubStats memctrl.SchemeStats

	// flight is the shard's always-on black box: the last N requests with
	// their stage vectors, recorded wait-free by the worker and snapshotted
	// by dump endpoints at any time.
	flight *telemetry.FlightRecorder
	// stages holds the per-stage latency histograms behind /statusz's
	// p50/p99 columns and the sink's stage family: the sink's own set
	// with Options.Metrics, which the sink records into, a private one
	// with only Options.Tracing, and nil with neither.
	stages *telemetry.StageHistograms
}

// run is the worker loop: it blocks for one request, then drains up to
// batch-1 more without blocking, optionally coalesces writes, and
// executes the batch in order under the owner lock. It exits when the
// queue is closed and fully drained.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]request, 0, s.batch)
	var superseded []bool
	lastWrite := make(map[uint64]int)
	for {
		req, ok := <-s.reqs
		if !ok {
			return
		}
		buf = append(buf[:0], req)
		open := true
	drain:
		for len(buf) < s.batch {
			select {
			case r, ok := <-s.reqs:
				if !ok {
					open = false
					break drain
				}
				buf = append(buf, r)
			default:
				break drain
			}
		}
		s.own.Lock()
		switch {
		case s.coalesce && len(buf) > 1:
			superseded = s.markSuperseded(buf, superseded, lastWrite)
			if s.batchKernels {
				s.execBatched(buf, superseded)
			} else {
				s.execCoalesced(buf, superseded)
			}
		case s.batchKernels && len(buf) > 1:
			s.execBatched(buf, nil)
		default:
			for i := range buf {
				resp := s.exec(&buf[i])
				if buf[i].done != nil {
					buf[i].done <- resp
				}
			}
		}
		s.publishStats()
		s.own.Unlock()
		s.pending.Add(-int64(len(buf)))
		if !open {
			// Queue closed mid-drain: finish anything still buffered in
			// the channel, then exit. Close holds off inline callers.
			s.own.Lock()
			for r := range s.reqs {
				resp := s.exec(&r)
				if r.done != nil {
					r.done <- resp
				}
			}
			s.publishStats()
			s.own.Unlock()
			return
		}
	}
}

// markSuperseded flags every write that a newer same-address write in the
// same batch makes redundant. Scanning backwards: lastWrite[a] set means
// a later write to a exists with no intervening read of a (reads pin
// older writes; flush/snapshot barriers pin everything before them).
func (s *shard) markSuperseded(buf []request, superseded []bool, lastWrite map[uint64]int) []bool {
	superseded = append(superseded[:0], make([]bool, len(buf))...)
	clear(lastWrite)
	for i := len(buf) - 1; i >= 0; i-- {
		switch buf[i].kind {
		case kWrite:
			if _, ok := lastWrite[buf[i].addr]; ok {
				superseded[i] = true
			}
			lastWrite[buf[i].addr] = i
		case kRead:
			delete(lastWrite, buf[i].addr)
		default: // kFlush, kSnap, kWriteBatch, kReadBatch: barriers
			clear(lastWrite)
		}
	}
	return superseded
}

// execCoalesced executes a batch honoring superseded marks: a skipped
// write completes with the outcome of the surviving (newer) write to its
// address, which always appears later in the same batch.
func (s *shard) execCoalesced(buf []request, superseded []bool) {
	var waiters map[uint64][]chan response
	for i := range buf {
		if superseded[i] {
			s.coalesced.Add(1)
			if buf[i].done != nil {
				if waiters == nil {
					waiters = make(map[uint64][]chan response)
				}
				waiters[buf[i].addr] = append(waiters[buf[i].addr], buf[i].done)
			}
			continue
		}
		resp := s.exec(&buf[i])
		if buf[i].kind == kWrite && waiters != nil {
			for _, ch := range waiters[buf[i].addr] {
				ch <- resp
			}
			delete(waiters, buf[i].addr)
		}
		if buf[i].done != nil {
			buf[i].done <- resp
		}
	}
}

// exec runs one request on the shard's scheme, advancing the shard clock
// exactly like System: self-clocked arrivals IssueGap apart, with the
// clock catching up to each completion.
func (s *shard) exec(r *request) response {
	switch r.kind {
	case kWrite:
		at := s.tick()
		s.env.Tel.BeginRequest(r.tc)
		out := s.sch.Write(r.addr, &r.line, at)
		return response{write: out, lat: s.recordWrite(r.tc, r.addr, &out, at)}
	case kRead:
		out, lat := s.read(r.addr, r.tc)
		return response{read: out, lat: lat}
	case kReadBatch:
		// Unlike a write sub-batch, each read ticks its own arrival and
		// runs alone: the clock sequence is that of the same reads queued
		// one by one. The scheme's touch stage first pulls every read's
		// metadata into the host cache, changing nothing else.
		b := r.batch
		memctrl.PrefetchReads(s.sch, b.addrs)
		for i, addr := range b.addrs {
			out, lat := s.read(addr, r.tc)
			b.reads[i] = ReadResult{Data: out.Data, Hit: out.Hit, Lat: lat}
		}
		return response{}
	case kWriteBatch:
		// A sub-batch is one arrival group: every op ticks an arrival
		// before the scheme runs the batch, then the clock catches up to
		// the completions — the batched analogue of exec's self-clocking.
		b := r.batch
		s.env.Tel.BeginRequest(r.tc)
		for i := range b.ops {
			b.ops[i].At = s.tick()
		}
		memctrl.WriteBatch(s.sch, b.ops)
		for i := range b.ops {
			op := &b.ops[i]
			b.lats[i] = s.recordWrite(r.tc, op.Logical, &op.Out, op.At)
		}
		// Outcomes travel in the sub-batch itself; the done send is the
		// publication barrier.
		return response{}
	case kFlush:
		if idle := s.env.Device.Flush(s.now); idle > s.now {
			s.now = idle
		}
		return response{}
	default: // kSnap
		return response{snap: s.snapshot()}
	}
}

// recordWrite is the owner's bookkeeping for one completed write, shared
// by every path that executes one: the clock catches up to the
// completion, and the latency histogram, stage histograms and flight
// recorder take the outcome. It returns the write's latency.
func (s *shard) recordWrite(tc telemetry.TraceCtx, addr uint64, out *memctrl.WriteOutcome, at sim.Time) sim.Time {
	if out.Done > s.now {
		s.now = out.Done
	}
	lat := out.Done - at
	s.writeHist.Record(lat)
	st := telemetry.StagesFromBreakdown(&out.Breakdown)
	if s.env.Tel == nil {
		// With metrics on, the sink's OnWrite has recorded st into this
		// same set.
		s.stages.Observe(&st)
	}
	s.flight.RecordWrite(s.id, tc, addr, out.PhysAddr, out.Deduplicated, at, lat, &st)
	return lat
}

// read runs one read on the shard's scheme: the body of both a scalar
// kRead and every op of a kReadBatch.
func (s *shard) read(addr uint64, tc telemetry.TraceCtx) (memctrl.ReadOutcome, sim.Time) {
	at := s.tick()
	s.env.Tel.BeginRequest(tc)
	out := s.sch.Read(addr, at)
	if out.Done > s.now {
		s.now = out.Done
	}
	lat := out.Done - at
	s.readHist.Record(lat)
	s.flight.RecordRead(s.id, tc, addr, out.Hit, at, lat)
	return out, lat
}

// execBatched executes a drained batch with runs of consecutive writes
// going through the scheme's batched write path (one batched AES pass
// per run) instead of the scalar loop. Reads, barriers and pre-grouped
// sub-batches flush the pending run first, preserving per-shard FIFO
// semantics. With a superseded mask (coalescing), a skipped write
// completes with the outcome of the surviving newer write to its
// address, exactly as in execCoalesced.
func (s *shard) execBatched(buf []request, superseded []bool) {
	var waiters map[uint64][]chan response
	run := s.runIdx[:0]
	flushRun := func() {
		if len(run) == 0 {
			return
		}
		ops := s.runOps[:0]
		for _, i := range run {
			s.env.Tel.BeginRequest(buf[i].tc)
			ops = append(ops, memctrl.BatchWrite{Logical: buf[i].addr, Data: &buf[i].line, At: s.tick()})
		}
		memctrl.WriteBatch(s.sch, ops)
		for k, i := range run {
			op := &ops[k]
			resp := response{write: op.Out, lat: s.recordWrite(buf[i].tc, buf[i].addr, &op.Out, op.At)}
			if waiters != nil {
				for _, ch := range waiters[buf[i].addr] {
					ch <- resp
				}
				delete(waiters, buf[i].addr)
			}
			if buf[i].done != nil {
				buf[i].done <- resp
			}
		}
		s.runOps = ops[:0]
		run = run[:0]
	}
	for i := range buf {
		if superseded != nil && superseded[i] {
			s.coalesced.Add(1)
			if buf[i].done != nil {
				if waiters == nil {
					waiters = make(map[uint64][]chan response)
				}
				waiters[buf[i].addr] = append(waiters[buf[i].addr], buf[i].done)
			}
			continue
		}
		if buf[i].kind == kWrite {
			run = append(run, i)
			continue
		}
		flushRun()
		resp := s.exec(&buf[i])
		if buf[i].done != nil {
			buf[i].done <- resp
		}
	}
	flushRun()
	s.runIdx = run[:0]
}

// publishStats republishes the scheme's counter block for the barrier-free
// readers (a struct copy under a short mutex; the scheme itself stays
// the owner's), and the staged telemetry when a reader has asked for it.
// The owner calls it after every drained batch and inline request.
func (s *shard) publishStats() {
	// Publish the device's staged health accounting at the same batch
	// boundary, so the barrier-free health surface is at most one batch
	// stale — same doctrine as the live scheme stats below.
	s.env.Device.SyncHealth()
	st := s.sch.Stats()
	s.statsMu.Lock()
	s.pubStats = st
	s.statsMu.Unlock()
	if s.pub.Asked() {
		s.publishTelemetry()
		s.pub.Served()
	}
}

// publishTelemetry folds the sink's and the stage histograms' staged
// samples into their published copies (owner only).
func (s *shard) publishTelemetry() {
	s.env.Tel.Publish()
	s.stages.Publish()
}

func (s *shard) tick() sim.Time {
	s.now += s.gap
	for s.interval > 0 && s.nextTick <= s.now {
		s.sch.Tick(s.nextTick)
		s.nextTick += s.interval
	}
	return s.now
}

func (s *shard) snapshot() *Snapshot {
	s.env.Device.SyncHealth()
	mst := s.env.Device.MediaStats()
	return &Snapshot{
		Shard:        s.id,
		Scheme:       s.sch.Stats(),
		WriteHist:    s.writeHist,
		ReadHist:     s.readHist,
		Energy:       s.env.Energy,
		MediaEnergy:  mst.MediaEnergy,
		DeviceWrites: mst.Writes,
		DeviceReads:  mst.Reads,
		Wear:         s.env.Device.Wear(),
		MetadataNVMM: s.sch.MetadataNVMM(),
		MetadataSRAM: s.sch.MetadataSRAM(),
		Now:          s.now,
		Coalesced:    s.coalesced.Load(),
		QueueLen:     len(s.reqs),
	}
}
