package shard

import (
	"sync"
	"sync/atomic"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// kind is the request discriminator on the shard queues.
type kind uint8

const (
	kWrite kind = iota
	kRead
	kWriteBatch // a pre-grouped sub-batch of writes (Engine.WriteBatch)
	kReadBatch  // a pre-grouped sub-batch of reads (Engine.ReadBatch)
	kBarrier    // run fn on the shard under its owner (Engine.barrier)
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
	// fn is a kBarrier's work, run by the shard's owner.
	fn func(*shard)
}

type response struct {
	write memctrl.WriteOutcome
	read  memctrl.ReadOutcome
	lat   sim.Time // simulated service latency (write/read)
}

// readResult is a read response as Engine.Read returns it.
func (r *response) readResult() ReadResult {
	return ReadResult{Data: r.read.Data, Hit: r.read.Hit, Lat: r.lat}
}

// shard is one independent partition: a scheme instance plus its private
// environment (EFIT, AMT, counter cache, bank group), with one owner at a
// time: the worker goroutine while it executes a drained batch, or a
// caller running its request inline on an idle shard (Engine.start). Fields
// below own are the owner's alone except flight, stages and pubStats,
// which are concurrency-safe and read live by the introspection endpoints
// (no barrier required). The telemetry sink
// (env.Tel) and stages stage their samples in owner memory; a reader gets
// them published through pub (Engine.publish).
type shard struct {
	id     int
	shards int // the engine's shard count: with id, maps local addresses back to logical ones
	reqs   chan request
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

	env   *memctrl.Env
	sch   memctrl.Scheme
	gap   sim.Time
	batch int

	now      sim.Time
	interval sim.Time
	nextTick sim.Time

	writeHist stats.Histogram
	readHist  stats.Histogram

	// pubStats is a copy of the scheme's counter block, republished after
	// every drained batch and inline request: the barrier-free view behind
	// the /statusz rates and /debug/device's dedup effectiveness (a wedged
	// shard must not make the serving endpoints hang on a barrier).
	statsMu  sync.Mutex
	pubStats memctrl.SchemeStats

	// flight is the shard's always-on black box: the last N requests with
	// their stage vectors, recorded wait-free by the owner and snapshotted
	// by dump endpoints at any time.
	flight *telemetry.FlightRecorder
	// stages is the stage latency set behind /statusz's p50/p99 columns:
	// the sink's own set with Options.Metrics, which the sink records into
	// and publishes as its stage family, a private one with only
	// Options.Tracing, and nil with neither.
	stages *telemetry.LatencySet
}

// run is the worker loop: it blocks for one request, then drains up to
// batch-1 more without blocking and executes the batch in order under the
// owner lock. It exits when the queue is closed and fully drained.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]request, 0, s.batch)
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
		for i := range buf {
			resp := s.exec(&buf[i])
			if buf[i].done != nil {
				buf[i].done <- resp
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
	default: // kBarrier
		r.fn(s)
		return response{}
	}
}

// recordWrite is the owner's bookkeeping for one completed write, shared
// by every path that executes one: the clock catches up to the
// completion, and the latency histogram, stage latency set and flight
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
		s.stages.Record(&st)
	}
	s.flight.RecordWrite(s.id, tc, s.logical(addr), out.PhysAddr, out.Deduplicated, at, lat, &st)
	return lat
}

// logical maps a shard-local line address back to the logical address
// callers use (Engine.localAddr's inverse), so flight records match the
// router's hop records and the slow-request log.
func (s *shard) logical(local uint64) uint64 {
	return local*uint64(s.shards) + uint64(s.id)
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
	s.flight.RecordRead(s.id, tc, s.logical(addr), out.Hit, at, lat)
	return out, lat
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

// publishTelemetry folds the sink's and the stage set's staged samples
// into their published copies (owner only). A sink publishes the stage
// set it shares with the shard.
func (s *shard) publishTelemetry() {
	if s.env.Tel != nil {
		s.env.Tel.Publish()
		return
	}
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

// flush drains the shard's device write queue, advancing the shard clock
// to the moment it goes idle.
func (s *shard) flush() {
	if idle := s.env.Device.Flush(s.now); idle > s.now {
		s.now = idle
	}
}

// snapshot takes the shard's counters. With exactWear it walks the
// device's per-line wear for Wear; without, Wear carries only the totals,
// line count, maximum and mean, which the health state keeps as it goes.
func (s *shard) snapshot(exactWear bool) Snapshot {
	s.env.Device.SyncHealth()
	mst := s.env.Device.MediaStats()
	var wear nvm.WearSummary
	if exactWear {
		wear = s.env.Device.Wear()
	} else {
		h := s.env.Device.HealthSummary()
		wear = nvm.WearSummary{
			TotalWrites:  h.Writes,
			LinesTouched: int(h.LinesTouched),
			MaxWear:      h.MaxWear,
			MeanWear:     h.MeanWear(),
		}
	}
	return Snapshot{
		Shard:        s.id,
		Scheme:       s.sch.Stats(),
		WriteHist:    s.writeHist,
		ReadHist:     s.readHist,
		Energy:       s.env.Energy,
		MediaEnergy:  mst.MediaEnergy,
		DeviceWrites: mst.Writes,
		DeviceReads:  mst.Reads,
		Wear:         wear,
		MetadataNVMM: s.sch.MetadataNVMM(),
		MetadataSRAM: s.sch.MetadataSRAM(),
		Now:          s.now,
		QueueLen:     len(s.reqs),
	}
}
