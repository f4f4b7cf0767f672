package media

import (
	"fmt"
	"sync/atomic"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/dram"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/sparse"
)

// Step names an intermediate point inside the hybrid write protocol where
// a crash is architecturally possible. The memory controller maps these
// onto its StepPoint crash-injection hook so the checker's crash tables
// can fail the system exactly between the protocol's two halves.
type Step uint8

const (
	// StepWALPersisted fires after the write-ahead PCM persist but before
	// the DRAM install: the write is already durable (the WAL tail carries
	// it) yet no volatile copy exists.
	StepWALPersisted Step = iota
	// StepDRAMInstalled fires after the DRAM install but before the caller
	// resumes (AMT/refcount updates happen after Write returns): the line
	// is dirty volatile-side and durable only through the WAL.
	StepDRAMInstalled
)

// String names the step for failure reports.
func (s Step) String() string {
	switch s {
	case StepWALPersisted:
		return "wal-persisted"
	case StepDRAMInstalled:
		return "dram-installed"
	default:
		return "unknown-hybrid-step"
	}
}

// HybridStats is the hybrid tier's activity snapshot. All fields are
// maintained with atomics, so Snapshot is safe to call from scrape
// goroutines while the simulation thread runs.
type HybridStats struct {
	// DRAMHits / DRAMMisses classify timed data reads by which tier
	// served them.
	DRAMHits   uint64
	DRAMMisses uint64
	// Promotions counts lines installed into DRAM (by write heat, read
	// heat, or a duplicate-reference hint); Demotions counts LRU
	// evictions back out. Writebacks is the dirty subset of demotions —
	// each one cost a PCM home write at eviction time.
	Promotions uint64
	Demotions  uint64
	Writebacks uint64
	// WALAppends counts write-ahead persists; every acknowledged write to
	// a DRAM-resident line did exactly one before installing.
	WALAppends uint64
	// AbsorbedWrites counts data writes served by DRAM instead of a PCM
	// home write — the wear the hot lines were spared.
	AbsorbedWrites uint64
	// CapacityLines / ResidentLines / DirtyLines describe the buffer:
	// capacity, current occupancy, and how many residents hold content
	// newer than their PCM home.
	CapacityLines int64
	ResidentLines int64
	DirtyLines    int64
}

// HitRate returns the DRAM fraction of timed data reads.
func (s HybridStats) HitRate() float64 {
	total := s.DRAMHits + s.DRAMMisses
	if total == 0 {
		return 0
	}
	return float64(s.DRAMHits) / float64(total)
}

// resident is one line's entry in the DRAM residency index, threaded on
// an intrusive LRU list (head = most recent).
type resident struct {
	addr       uint64
	dirty      bool
	prev, next *resident
}

// Hybrid is a content-aware DRAM/PCM tier (CARAM, arxiv 2007.13661): hot
// and duplicate-heavy lines live in a small volatile DRAM buffer, cold
// uniques in PCM. Placement is driven by a per-line heat counter — +1
// per access, +RefBoost per duplicate-reference hint from the dedup
// engine, halved every DecayEvery accesses — and an LRU over the
// resident set for demotion.
//
// Crash consistency: DRAM is volatile, so every write that lands
// volatile-side first appends to a rotating write-ahead log in PCM
// (timed; the caller's acknowledgement comes from this persist), and
// only then installs into DRAM. Dirty residents are therefore always
// recoverable; Crash replays them (and the in-flight WAL tail) into
// their PCM homes before dropping the buffer, so a crash never loses an
// acknowledged write. Clean residents (promoted on read) match their PCM
// home by construction and just vanish.
//
// The wear payoff: a line written N times while resident costs N WAL
// appends spread round-robin over WALLines log lines plus at most one
// home writeback at demotion, instead of N writes concentrated on its
// home line.
type Hybrid struct {
	pcm  *nvm.Device
	dram *dram.Device
	cfg  config.Media

	capacity int
	res      map[uint64]*resident
	head     *resident // MRU
	tail     *resident // LRU

	// heat packs (epoch<<32 | heat) per line; decay is lazy (applied on
	// next touch by right-shifting per elapsed epoch).
	heat     sparse.Map[uint64]
	epoch    uint32
	accesses int

	// Rotating write-ahead log inside the PCM metadata region.
	walBase  uint64
	walLines uint64
	walSeq   uint64

	// pending is the WAL tail: content persisted by the last write-ahead
	// append but possibly not yet installed in DRAM. One entry suffices —
	// the simulation thread runs one write at a time.
	pendingAddr uint64
	pendingLine ecc.Line
	pendingOK   bool

	// OnStep, when non-nil, fires at each crash-injection Step. The hook
	// may crash the whole scheme reentrantly (that is its purpose), so the
	// write path re-resolves all residency state after each call.
	OnStep func(Step)

	hits       atomic.Uint64
	misses     atomic.Uint64
	promos     atomic.Uint64
	demos      atomic.Uint64
	writebacks atomic.Uint64
	walAppends atomic.Uint64
	absorbed   atomic.Uint64
	residentN  atomic.Int64
	dirtyN     atomic.Int64
}

// NewHybrid builds the hybrid tier over pcm with a fresh DRAM buffer.
// The rotating WAL occupies [walBase, walBase+walLines) in pcm's address
// space — callers place it inside the metadata region so it never
// collides with data homes. cfg must be normalized (config.Media with
// all fields positive); memctrl's EnableHybridMedia does that.
func NewHybrid(pcm *nvm.Device, dramDev *dram.Device, cfg config.Media, walBase, walLines uint64) *Hybrid {
	if walLines == 0 {
		panic("media: hybrid needs a non-empty WAL region")
	}
	capacity := int(dramDev.Lines())
	if capacity < 1 {
		capacity = 1
	}
	h := &Hybrid{
		pcm:      pcm,
		dram:     dramDev,
		cfg:      cfg,
		capacity: capacity,
		res:      make(map[uint64]*resident),
		walBase:  walBase,
		walLines: walLines,
	}
	return h
}

// PCM returns the durable device behind the buffer.
func (h *Hybrid) PCM() *nvm.Device { return h.pcm }

// DRAM returns the volatile buffer device.
func (h *Hybrid) DRAM() *dram.Device { return h.dram }

// Snapshot returns the current tier statistics (safe concurrently with
// the simulation thread).
func (h *Hybrid) Snapshot() HybridStats {
	return HybridStats{
		DRAMHits:       h.hits.Load(),
		DRAMMisses:     h.misses.Load(),
		Promotions:     h.promos.Load(),
		Demotions:      h.demos.Load(),
		Writebacks:     h.writebacks.Load(),
		WALAppends:     h.walAppends.Load(),
		AbsorbedWrites: h.absorbed.Load(),
		CapacityLines:  int64(h.capacity),
		ResidentLines:  h.residentN.Load(),
		DirtyLines:     h.dirtyN.Load(),
	}
}

func (h *Hybrid) step(s Step) {
	if h.OnStep != nil {
		h.OnStep(s)
	}
}

// bump adds amt heat to addr after applying lazy epoch decay, advancing
// the epoch every DecayEvery accesses, and returns the effective heat.
func (h *Hybrid) bump(addr uint64, amt int) int {
	h.accesses++
	if h.accesses >= h.cfg.DecayEvery {
		h.accesses = 0
		h.epoch++
	}
	packed := h.heat.Load(addr)
	e, v := uint32(packed>>32), int(uint32(packed))
	if d := h.epoch - e; d > 0 {
		if d > 31 {
			v = 0
		} else {
			v >>= d
		}
	}
	v += amt
	const heatCap = 1 << 20
	if v > heatCap {
		v = heatCap
	}
	h.heat.Set(addr, uint64(h.epoch)<<32|uint64(uint32(v)))
	return v
}

// --- LRU index ---

func (h *Hybrid) unlink(n *resident) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		h.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		h.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (h *Hybrid) pushFront(n *resident) {
	n.next = h.head
	if h.head != nil {
		h.head.prev = n
	}
	h.head = n
	if h.tail == nil {
		h.tail = n
	}
}

func (h *Hybrid) touch(n *resident) {
	if h.head == n {
		return
	}
	h.unlink(n)
	h.pushFront(n)
}

func (h *Hybrid) insert(addr uint64) *resident {
	n := &resident{addr: addr}
	h.res[addr] = n
	h.pushFront(n)
	h.residentN.Add(1)
	h.promos.Add(1)
	return n
}

// ensureRoom demotes LRU victims until addr could be inserted. Dirty
// victims cost a timed PCM home writeback at `now`; clean victims match
// their home already and evict for free.
func (h *Hybrid) ensureRoom(addr uint64, now sim.Time) {
	if h.res[addr] != nil {
		return
	}
	for len(h.res) >= h.capacity && h.tail != nil {
		v := h.tail
		h.unlink(v)
		delete(h.res, v.addr)
		h.residentN.Add(-1)
		if v.dirty {
			h.dirtyN.Add(-1)
			if line, ok := h.dram.Load(v.addr); ok {
				h.pcm.Write(v.addr, &line, now)
			}
			h.writebacks.Add(1)
		}
		h.dram.Evict(v.addr)
		h.demos.Add(1)
	}
}

// installClean promotes addr with content equal to its PCM home: a timed
// DRAM fill, no WAL needed (losing a clean resident loses nothing).
func (h *Hybrid) installClean(addr uint64, line *ecc.Line, now sim.Time) {
	h.ensureRoom(addr, now)
	h.dram.Write(addr, line, now)
	h.insert(addr)
}

// walAddr returns the next rotating write-ahead log line.
func (h *Hybrid) walAddr() uint64 {
	a := h.walBase + h.walSeq%h.walLines
	h.walSeq++
	return a
}

// installWAL is the durable write protocol for a DRAM-bound line:
//
//  1. stage the content as the WAL tail,
//  2. timed write-ahead persist to the rotating PCM log (the caller's
//     acknowledgement — the write is durable from here on),
//  3. timed DRAM install, marking the resident dirty.
//
// Crash-injection steps fire between 2 and 3 and after 3; because a step
// hook may crash the scheme reentrantly (rebuilding every index this
// method was mid-flight through), residency is re-resolved after each.
func (h *Hybrid) installWAL(addr uint64, line *ecc.Line, now sim.Time) nvm.WriteResult {
	h.ensureRoom(addr, now)
	h.pendingAddr, h.pendingLine, h.pendingOK = addr, *line, true
	wr := h.pcm.WriteMeta(h.walAddr(), now)
	h.walAppends.Add(1)
	h.step(StepWALPersisted)
	h.dram.Write(addr, line, now)
	n := h.res[addr]
	if n == nil {
		n = h.insert(addr)
	} else {
		h.touch(n)
	}
	if !n.dirty {
		n.dirty = true
		h.dirtyN.Add(1)
	}
	h.pendingOK = false
	h.step(StepDRAMInstalled)
	return wr
}

// --- Backend implementation ---

// Read serves resident lines from DRAM (fast path) and everything else
// from PCM, heating the line and promoting it once it crosses the
// threshold (a clean fill at the read's completion time).
func (h *Hybrid) Read(addr uint64, now sim.Time) (ecc.Line, bool, nvm.ReadResult) {
	if n := h.res[addr]; n != nil {
		h.touch(n)
		h.hits.Add(1)
		h.bump(addr, 1)
		return h.dram.Read(addr, now)
	}
	h.misses.Add(1)
	line, ok, rr := h.pcm.Read(addr, now)
	if ok && h.bump(addr, 1) >= h.cfg.PromoteThreshold {
		h.installClean(addr, &line, rr.Done)
	}
	return line, ok, rr
}

// ReadMeta delegates to PCM: metadata structures are NVMM-resident by
// design (the AMT backing store, the WAL itself) and never buffer in
// DRAM.
func (h *Hybrid) ReadMeta(addr uint64, now sim.Time) nvm.ReadResult {
	return h.pcm.ReadMeta(addr, now)
}

// Write routes hot lines through the WAL-then-DRAM protocol and cold
// uniques straight to their PCM home.
func (h *Hybrid) Write(addr uint64, line *ecc.Line, now sim.Time) nvm.WriteResult {
	if h.res[addr] != nil {
		h.bump(addr, 1)
		h.absorbed.Add(1)
		return h.installWAL(addr, line, now)
	}
	if h.bump(addr, 1) >= h.cfg.PromoteThreshold {
		h.absorbed.Add(1)
		return h.installWAL(addr, line, now)
	}
	return h.pcm.Write(addr, line, now)
}

// WriteMeta delegates to PCM (see ReadMeta).
func (h *Hybrid) WriteMeta(addr uint64, now sim.Time) nvm.WriteResult {
	return h.pcm.WriteMeta(addr, now)
}

// Load returns the newest functional content of addr: the WAL tail if a
// persist is in flight, the DRAM copy for dirty residents, the PCM home
// otherwise (clean residents match their home by construction).
func (h *Hybrid) Load(addr uint64) (ecc.Line, bool) {
	if h.pendingOK && addr == h.pendingAddr {
		return h.pendingLine, true
	}
	if n := h.res[addr]; n != nil && n.dirty {
		return h.dram.Load(addr)
	}
	return h.pcm.Load(addr)
}

// Flush drains the PCM write queues and waits out the DRAM banks; dirty
// residents stay resident (their durability is carried by the WAL, not
// by flushing).
func (h *Hybrid) Flush(now sim.Time) sim.Time {
	idle := h.pcm.Flush(now)
	if d := h.dram.Idle(now); d > idle {
		idle = d
	}
	return idle
}

// SyncHealth publishes the PCM health accounting (DRAM has none — it
// does not wear).
func (h *Hybrid) SyncHealth() { h.pcm.SyncHealth() }

// Wear delegates to PCM — DRAM does not wear, which is the point.
func (h *Hybrid) Wear() nvm.WearSummary { return h.pcm.Wear() }

// HealthSummary delegates to PCM.
func (h *Hybrid) HealthSummary() nvm.HealthSummary { return h.pcm.HealthSummary() }

// HealthSnapshot delegates to PCM.
func (h *Hybrid) HealthSnapshot() nvm.HealthSnapshot { return h.pcm.HealthSnapshot() }

// MediaStats returns the PCM activity counters with the DRAM buffer's
// energy folded into MediaEnergy, so scheme-level energy totals account
// for both tiers. Reads/Writes stay PCM-only: they feed wear and
// endurance interpretation, where DRAM traffic is free by design, and
// telemetry's device read/write totals, which describe PCM media traffic
// (DRAM activity is scraped from Snapshot).
func (h *Hybrid) MediaStats() nvm.Stats {
	st := h.pcm.MediaStats()
	st.MediaEnergy += h.dram.Stats.EnergyNJ
	return st
}

// Crash models power failure with recovery: replay every dirty resident
// and the in-flight WAL tail into their PCM homes (functionally — the
// recovery pass is offline, outside the timing model), then drop all
// volatile state: the buffer, the residency index, and the heat table.
// Afterwards every acknowledged write is readable from PCM.
func (h *Hybrid) Crash() {
	for addr, n := range h.res {
		if !n.dirty {
			continue
		}
		if line, ok := h.dram.Load(addr); ok {
			h.pcm.Store(addr, line)
		}
	}
	if h.pendingOK {
		h.pcm.Store(h.pendingAddr, h.pendingLine)
		h.pendingOK = false
	}
	h.dram.Crash()
	h.res = make(map[uint64]*resident)
	h.head, h.tail = nil, nil
	h.heat = sparse.Map[uint64]{}
	h.epoch, h.accesses = 0, 0
	h.residentN.Store(0)
	h.dirtyN.Store(0)
}

// RefHint reports that phys gained a duplicate reference (a dedup hit or
// refcount increment) at time `at` — CARAM's content-aware placement
// signal. The line's heat jumps by RefBoost, and a non-resident line
// crossing the promotion threshold is promoted immediately with a clean
// fill from its PCM home.
func (h *Hybrid) RefHint(phys uint64, at sim.Time) {
	if h.bump(phys, h.cfg.RefBoost) < h.cfg.PromoteThreshold {
		return
	}
	if h.res[phys] != nil {
		return
	}
	if line, ok := h.pcm.Load(phys); ok {
		h.installClean(phys, &line, at)
	}
}

// Audit checks the tier's structural invariants, returning a description
// per violation (empty = healthy). The differential checker calls it
// alongside the scheme audits.
func (h *Hybrid) Audit() []string {
	var bad []string
	if len(h.res) > h.capacity {
		bad = append(bad, fmt.Sprintf("hybrid: %d residents exceed capacity %d", len(h.res), h.capacity))
	}
	if h.dram.Resident() != len(h.res) {
		bad = append(bad, fmt.Sprintf("hybrid: DRAM store holds %d lines but residency index holds %d", h.dram.Resident(), len(h.res)))
	}
	listLen, dirty := 0, 0
	for n := h.head; n != nil; n = n.next {
		listLen++
		if h.res[n.addr] != n {
			bad = append(bad, fmt.Sprintf("hybrid: LRU node %d not in residency index", n.addr))
		}
		if n.dirty {
			dirty++
			continue
		}
		// Clean residents must match their PCM home byte for byte —
		// otherwise a free eviction would lose data.
		dline, dok := h.dram.Load(n.addr)
		pline, pok := h.pcm.Load(n.addr)
		if !dok || !pok || dline != pline {
			bad = append(bad, fmt.Sprintf("hybrid: clean resident %d diverges from its PCM home (dram=%v pcm=%v)", n.addr, dok, pok))
		}
	}
	if listLen != len(h.res) {
		bad = append(bad, fmt.Sprintf("hybrid: LRU list length %d != residency index size %d", listLen, len(h.res)))
	}
	if int64(dirty) != h.dirtyN.Load() {
		bad = append(bad, fmt.Sprintf("hybrid: %d dirty residents but counter says %d", dirty, h.dirtyN.Load()))
	}
	if int64(len(h.res)) != h.residentN.Load() {
		bad = append(bad, fmt.Sprintf("hybrid: %d residents but counter says %d", len(h.res), h.residentN.Load()))
	}
	return bad
}

var _ Backend = (*Hybrid)(nil)
