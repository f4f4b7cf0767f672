// Package nvm models the PCM-based non-volatile main memory device: the
// functional backing store (what every line currently holds), the timing
// behaviour of its banks (75 ns reads, 150 ns writes, per-bank queues with
// read priority over posted writes), per-line wear counters for endurance
// studies, and a media energy meter.
//
// The model follows the structure of NVMain's PCM backend at the level the
// paper's evaluation depends on: requests interleave over independent
// banks, writes are posted into a bounded per-bank write queue that drains
// when the bank is idle, and demand reads bypass queued writes. Reduced
// write traffic therefore directly shortens read queueing delay — the
// effect behind the paper's read speedups (§IV-C).
package nvm

import (
	"fmt"
	"slices"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/sparse"
)

// pendingWrite is a posted write waiting for its bank.
type pendingWrite struct {
	enq sim.Time
}

// bank tracks the timing state of one PCM bank.
type bank struct {
	busyUntil sim.Time
	busy      sim.Time // accumulated service time
	// tRead/tWrite are this bank's media latencies — the configured device
	// latencies, plus FaultExtraLatency on the fault-injected bank.
	tRead  sim.Time
	tWrite sim.Time
	// writeQ is a fixed-capacity ring of posted writes, allocated once in
	// New with capacity WriteQueueDepth. Write force-drains whenever the
	// ring is full before enqueueing, so it can never overflow, and the
	// steady state does no slice append/shift churn.
	writeQ []pendingWrite
	wqHead int
	wqLen  int
	// openLine is the line currently latched in the row buffer; repeated
	// reads of it are row hits and bypass the full media read.
	openLine uint64
	hasOpen  bool
}

// wqFront returns the oldest queued write without removing it.
func (b *bank) wqFront() pendingWrite { return b.writeQ[b.wqHead] }

// wqPop removes and returns the oldest queued write.
func (b *bank) wqPop() pendingWrite {
	w := b.writeQ[b.wqHead]
	b.wqHead = (b.wqHead + 1) % len(b.writeQ)
	b.wqLen--
	return w
}

// wqPush appends a posted write; the caller guarantees a free slot.
func (b *bank) wqPush(w pendingWrite) {
	b.writeQ[(b.wqHead+b.wqLen)%len(b.writeQ)] = w
	b.wqLen++
}

// drainTo opportunistically services queued writes during idle time before
// now, stopping as soon as the bank is busy at or past now.
func (b *bank) drainTo(now sim.Time, tWrite sim.Time) int {
	served := 0
	for b.wqLen > 0 && b.busyUntil < now {
		w := b.wqFront()
		start := b.busyUntil
		if w.enq > start {
			start = w.enq
		}
		if start >= now {
			break
		}
		b.wqPop()
		b.busyUntil = start + tWrite
		b.busy += tWrite
		served++
	}
	return served
}

// ReadResult reports the timing of a demand read.
type ReadResult struct {
	// Start is when the bank began servicing the read.
	Start sim.Time
	// Done is when the data is available at the controller (media + bus).
	Done sim.Time
	// QueueDelay is Start minus submission time.
	QueueDelay sim.Time
}

// WriteResult reports the timing of a posted write.
type WriteResult struct {
	// AcceptedAt is when the write entered the bank's write queue; it
	// equals the submission time unless the queue was full.
	AcceptedAt sim.Time
	// Stall is AcceptedAt minus submission time (back-pressure).
	Stall sim.Time
	// ServiceLatency is this write's media service time on its bank — the
	// configured write latency, plus the fault penalty on a degraded bank.
	// Schemes charge the media stage with it instead of the device-wide
	// constant, so a per-bank fault is visible in latency breakdowns.
	ServiceLatency sim.Time
}

// Stats aggregates device activity.
type Stats struct {
	Reads          uint64
	Writes         uint64
	RowHits        uint64
	ReadQueueTime  sim.Time
	WriteStallTime sim.Time
	MediaEnergy    float64 // nJ
}

// Device is the PCM device. The timing model and functional store are not
// safe for concurrent use (one simulation thread drives them), but the wear
// and health accessors — Wear, WearOf, HealthSummary, HealthSnapshot — are
// safe to call from other goroutines while that thread runs: all shared
// wear and health state is guarded by an internal mutex (see health.go).
// The simulation thread stages its accounting in a private buffer, so those
// accessors may lag the simulation by up to healthBatch media ops; Flush or
// SyncHealth (simulation-thread calls) publish everything staged.
type Device struct {
	cfg   config.PCM
	banks []bank
	// data is the functional store. Line addresses are dense, so a paged
	// sparse array beats a map on the per-write hot path by a wide margin
	// (no hashing, no rehash churn as the device fills).
	data sparse.Map[ecc.Line]
	// health holds all wear and health accounting, including the per-line
	// wear pages. The simulation thread stages reads and writes alike and
	// folds them under health.mu, which guards everything readers see.
	health health

	Stats Stats
}

// New constructs a device from cfg. It panics on an invalid configuration;
// validation belongs to config.Config.Validate.
func New(cfg config.PCM) *Device {
	if cfg.Banks <= 0 {
		panic("nvm: need at least one bank")
	}
	depth := cfg.WriteQueueDepth
	if depth < 1 {
		depth = 1
	}
	banks := make([]bank, cfg.Banks)
	for i := range banks {
		banks[i].writeQ = make([]pendingWrite, depth)
		banks[i].tRead = cfg.ReadLatency
		banks[i].tWrite = cfg.WriteLatency
		if cfg.FaultExtraLatency > 0 && i == cfg.FaultBank {
			banks[i].tRead += cfg.FaultExtraLatency
			banks[i].tWrite += cfg.FaultExtraLatency
		}
	}
	d := &Device{
		cfg:   cfg,
		banks: banks,
	}
	d.health.init(cfg.Banks, cfg.Lines())
	return d
}

// Lines returns the device capacity in cache lines.
func (d *Device) Lines() int64 { return d.cfg.Lines() }

func (d *Device) checkAddr(addr uint64) {
	if int64(addr) >= d.cfg.Lines() {
		panic(fmt.Sprintf("nvm: line address %d beyond capacity (%d lines)", addr, d.cfg.Lines()))
	}
}

// Read performs a timed demand read of line addr. The returned line is the
// current content (zero line if never written; ok reports which).
func (d *Device) Read(addr uint64, now sim.Time) (ecc.Line, bool, ReadResult) {
	res := d.readTimed(addr, now)
	line, ok := d.data.Get(addr)
	return line, ok, res
}

// ReadMeta performs a timed read of a metadata line: identical bank timing,
// stats, energy and health accounting to Read, but without fetching
// functional content. Every metadata structure in the simulator keeps its
// authoritative state SRAM-side (the AMT backing table, the fingerprint
// indexes); the NVMM-resident copy exists to charge realistic media traffic,
// and nothing ever reads its bytes back. Skipping the functional store keeps
// the hash-scattered metadata region out of the data working set entirely.
func (d *Device) ReadMeta(addr uint64, now sim.Time) ReadResult {
	return d.readTimed(addr, now)
}

func (d *Device) readTimed(addr uint64, now sim.Time) ReadResult {
	d.checkAddr(addr)
	bi := addr % uint64(len(d.banks))
	b := &d.banks[bi]
	b.drainTo(now, b.tWrite)
	// Write-drain policy: a queue at or above the high watermark forces
	// the bank to retire writes down to the low watermark before this
	// read is served.
	if d.cfg.DrainHigh > 0 && b.wqLen >= d.cfg.DrainHigh {
		for b.wqLen > d.cfg.DrainLow {
			w := b.wqPop()
			start := b.busyUntil
			if w.enq > start {
				start = w.enq
			}
			if now > start {
				start = now
			}
			b.busyUntil = start + b.tWrite
			b.busy += b.tWrite
		}
	}
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	lat := b.tRead
	rowHit := b.hasOpen && b.openLine == addr && d.cfg.RowHitLatency > 0
	if rowHit {
		lat = d.cfg.RowHitLatency
		d.Stats.RowHits++
	}
	b.openLine, b.hasOpen = addr, true
	b.busyUntil = start + lat
	b.busy += lat
	res := ReadResult{
		Start:      start,
		Done:       b.busyUntil + d.cfg.BusLatency,
		QueueDelay: start - now,
	}
	d.Stats.Reads++
	d.Stats.ReadQueueTime += res.QueueDelay
	d.Stats.MediaEnergy += d.cfg.ReadEnergy
	d.health.noteRead(int(bi), rowHit)
	return res
}

// Write performs a timed posted write of line to addr. The functional state
// updates immediately; the media operation drains from the bank's write
// queue in the background. If the queue is full the writer stalls until the
// bank frees a slot.
func (d *Device) Write(addr uint64, line *ecc.Line, now sim.Time) WriteResult {
	res := d.writeTimed(addr, now)
	d.data.Set(addr, *line)
	return res
}

// WriteMeta performs a timed posted write of a metadata line: identical
// queueing, wear and energy accounting to Write, but without storing
// functional content (see ReadMeta for why none is needed).
func (d *Device) WriteMeta(addr uint64, now sim.Time) WriteResult {
	return d.writeTimed(addr, now)
}

func (d *Device) writeTimed(addr uint64, now sim.Time) WriteResult {
	d.checkAddr(addr)
	bi := addr % uint64(len(d.banks))
	b := &d.banks[bi]
	b.drainTo(now, b.tWrite)
	ack := now
	// Full queue: force-drain the oldest writes until a slot frees; the
	// writer observes the completion time of the last forced drain.
	for b.wqLen >= d.cfg.WriteQueueDepth {
		w := b.wqPop()
		start := b.busyUntil
		if w.enq > start {
			start = w.enq
		}
		if ack > start {
			start = ack
		}
		b.busyUntil = start + b.tWrite
		b.busy += b.tWrite
		ack = b.busyUntil
	}
	b.wqPush(pendingWrite{enq: ack})
	// A write to the open line invalidates the row buffer (the queued
	// media write will re-open its own row later).
	if b.hasOpen && b.openLine == addr {
		b.hasOpen = false
	}
	d.health.noteWrite(addr, int(bi))
	d.Stats.Writes++
	d.Stats.MediaEnergy += d.cfg.WriteEnergy
	res := WriteResult{AcceptedAt: ack, Stall: ack - now, ServiceLatency: b.tWrite}
	d.Stats.WriteStallTime += res.Stall
	return res
}

// SyncHealth publishes all staged health accounting to the concurrent
// wear/health accessors. It must be called from the simulation thread (the
// one calling Read/Write); Flush does it implicitly.
func (d *Device) SyncHealth() { d.health.sync() }

// Flush drains every queued write, returning the time the device goes idle
// (at least now). It also publishes staged health accounting, so wear and
// health accessors are exact after a flush.
func (d *Device) Flush(now sim.Time) sim.Time {
	d.health.sync()
	idle := now
	for i := range d.banks {
		b := &d.banks[i]
		for b.wqLen > 0 {
			w := b.wqPop()
			start := b.busyUntil
			if w.enq > start {
				start = w.enq
			}
			if now > start {
				start = now
			}
			b.busyUntil = start + b.tWrite
			b.busy += b.tWrite
		}
		if b.busyUntil > idle {
			idle = b.busyUntil
		}
	}
	return idle
}

// Load returns the functional content of addr without timing side effects.
func (d *Device) Load(addr uint64) (ecc.Line, bool) {
	d.checkAddr(addr)
	return d.data.Get(addr)
}

// Store updates the functional content of addr without timing side effects
// (used to pre-populate state during warm-up).
func (d *Device) Store(addr uint64, line ecc.Line) {
	d.checkAddr(addr)
	d.data.Set(addr, line)
}

// LinesWritten reports how many distinct lines hold data.
func (d *Device) LinesWritten() int { return d.data.Len() }

// WearOf returns the write count of addr. Safe to call concurrently with
// the simulation; may lag it by up to healthBatch media ops (exact after
// Flush/SyncHealth).
func (d *Device) WearOf(addr uint64) uint64 {
	d.health.mu.Lock()
	w := d.health.wearOf(addr)
	d.health.mu.Unlock()
	return w
}

// WearSummary summarizes per-line wear for endurance analysis.
type WearSummary struct {
	TotalWrites  uint64
	LinesTouched int
	MaxWear      uint64
	MeanWear     float64
	// P99Wear is the 99th-percentile per-line write count.
	P99Wear uint64
}

// Wear computes the exact device wear summary by walking the dense slots
// and occupied block entries of the per-line wear pages. Safe to call
// concurrently with the simulation (it snapshots under the device health
// lock) but may lag it by up to healthBatch media ops (exact after
// Flush/SyncHealth); prefer HealthSummary for cheap polling.
func (d *Device) Wear() WearSummary {
	var s WearSummary
	d.health.mu.Lock()
	defer d.health.mu.Unlock()
	var lines uint64
	for i := range d.health.banks {
		lines += d.health.banks[i].lines
	}
	if lines == 0 {
		return s
	}
	counts := make([]uint64, 0, lines)
	for _, pg := range d.health.pages {
		switch {
		case pg == nil:
		case pg.dense != nil:
			for _, c := range pg.dense {
				if c != 0 && c != wearEscape {
					counts = append(counts, uint64(c))
				}
			}
		default:
			for _, e := range pg.block {
				if c := uint16(e); c != 0 && c != wearEscape {
					counts = append(counts, uint64(c))
				}
			}
		}
	}
	for _, c := range d.health.over {
		counts = append(counts, c)
	}
	for _, c := range counts {
		s.TotalWrites += c
	}
	s.LinesTouched = len(counts)
	s.MeanWear = float64(s.TotalWrites) / float64(len(counts))
	slices.Sort(counts)
	s.MaxWear = counts[len(counts)-1]
	s.P99Wear = counts[len(counts)*99/100]
	return s
}

// Utilization reports mean bank utilization over [0, horizon].
func (d *Device) Utilization(horizon sim.Time) float64 {
	if horizon <= 0 || len(d.banks) == 0 {
		return 0
	}
	var busy sim.Time
	for i := range d.banks {
		busy += d.banks[i].busy
	}
	u := float64(busy) / float64(int64(horizon)*int64(len(d.banks)))
	if u > 1 {
		u = 1
	}
	return u
}

// QueuedWrites reports the total number of writes currently queued.
func (d *Device) QueuedWrites() int {
	n := 0
	for i := range d.banks {
		n += d.banks[i].wqLen
	}
	return n
}

// MediaStats returns the device activity counters. It exists so Device can
// satisfy the media.Backend interface (Stats is a plain field here, but a
// composed backend has to assemble the struct on demand).
func (d *Device) MediaStats() Stats { return d.Stats }
