// Device-health accounting: cheap, always-on incremental aggregation of
// media activity that serving endpoints can snapshot while the simulation
// runs. The Device itself stays single-writer (one shard worker drives it),
// but wear and health state are guarded by a dedicated mutex so concurrent
// readers (metrics scrapes, /debug/device, esdtop) see a consistent view.
//
// Everything here is O(1) per media operation: per-bank and per-region
// counters are direct array bumps, and the wear distribution is maintained
// as a bounded log2-bucketed histogram updated incrementally as lines move
// between buckets. Snapshots never walk the per-line wear pages (that
// remains the job of the exact, now also lock-protected, Wear()).
package nvm

import (
	"math"
	"math/bits"
	"sync"

	"github.com/esdsim/esd/internal/config"
)

// healthRegions is the maximum number of equal-sized address regions the
// device is carved into for spatial write-locality accounting. Small test
// devices get one region per line instead.
const healthRegions = 64

// wearHistBuckets bounds the log2 wear histogram: bucket i counts lines
// whose wear w satisfies 2^i <= w < 2^(i+1), which covers all of uint64.
const wearHistBuckets = 64

// Wear counters live in demand-allocated pages of 4096 lines, indexed by
// a flat pointer table (device capacity is known at construction), so an
// untouched page costs one nil pointer. A page starts as a block: an
// open-addressed table of packed (offset+1)<<16 | count entries (0 is an
// empty entry), wearBlockMin of them at first, doubled whenever an insert
// would fill it past 3/4. The hash-scattered metadata region writes a few
// lines in every page of its range, and a block costs such a page 4 B per
// entry instead of 2 B per line of the page. Once a doubled block would
// cost as much as the dense form (wearBlockDense entries, 8 KiB), the page
// turns dense instead: 4096 uint16 slots indexed by offset, so the
// per-write bump is a direct index again. A slot or an entry's count holds
// a line's exact count up to wearEscape-1; a line written more often than
// that holds wearEscape, and its exact count lives in health.over
// (DESIGN.md §11).
const (
	wearPageShift  = 12
	wearPageSize   = 1 << wearPageShift
	wearPageMask   = wearPageSize - 1
	wearEscape     = math.MaxUint16
	wearBlockMin   = 8
	wearBlockDense = wearPageSize * 2 / 4 // entries of 4 B that cost a dense page's 2 B slots
)

// wearPage holds one page's per-line wear: a block while few of its lines
// have been written, dense slots after.
type wearPage struct {
	dense *[wearPageSize]uint16 // nil while the page is a block
	block []uint32              // open-addressed entries; nil once dense
	used  int                   // occupied block entries
}

// wearHome is where offset off's block probe starts, before the block's
// mask: the top 12 bits of a Fibonacci hash, so strided offsets spread.
func wearHome(off uint64) uint32 { return uint32(off) * 0x9E3779B1 >> 20 }

// find returns the index in pg's block of offset off's entry, or of the
// empty entry where the line's first write goes: one linear probe from
// the offset's home.
func (pg *wearPage) find(off uint64) uint32 {
	key := uint32(off+1) << 16
	mask := uint32(len(pg.block) - 1)
	i := wearHome(off) & mask
	for e := pg.block[i]; e != 0 && e&^wearEscape != key; e = pg.block[i] {
		i = (i + 1) & mask
	}
	return i
}

// count returns the slot or entry of offset off: 0 if the line was never
// written, wearEscape if its count lives in health.over.
func (pg *wearPage) count(off uint64) uint16 {
	if pg.dense != nil {
		return pg.dense[off]
	}
	return uint16(pg.block[pg.find(off)])
}

// put stores entry e, whose line pg does not hold yet, without growing.
func (pg *wearPage) put(e uint32) {
	off := uint64(e>>16 - 1)
	if pg.dense != nil {
		pg.dense[off] = uint16(e)
		return
	}
	pg.block[pg.find(off)] = e
	pg.used++
}

// grow makes room for one more line: it doubles pg's block, or turns the
// page dense once the doubled block would cost as much.
func (pg *wearPage) grow() {
	old := pg.block
	if 2*len(old) >= wearBlockDense {
		pg.dense, pg.block = new([wearPageSize]uint16), nil
	} else {
		pg.block = make([]uint32, 2*len(old))
	}
	pg.used = 0
	for _, e := range old {
		if e != 0 {
			pg.put(e)
		}
	}
}

// bankHealth is the per-bank slice of the health counters (guarded by
// health.mu).
type bankHealth struct {
	reads   uint64
	writes  uint64
	rowHits uint64
	maxWear uint64
	lines   uint64 // distinct lines of this bank ever written
}

// regionHealth is the per-region slice (write/wear only: regions exist for
// spatial endurance analysis, not timing).
type regionHealth struct {
	writes  uint64
	maxWear uint64
	lines   uint64
}

// healthBatch is how many media ops the simulation thread stages privately
// before folding them into the shared state under the mutex. Staging keeps
// the hot path free of locked/atomic operations entirely — in a cache-busy
// workload even an uncontended mutex CAS is a serializing miss — while the
// fold replays the batch over health lines that then stay hot.
const healthBatch = 64

// pendKind tags one staged media op.
const (
	pendWrite = iota
	pendRead
	pendReadHit // read that hit the open row
)

// pendOp is one staged media op: a write's line address, or a read's
// row-hit flag, plus the op's bank.
type pendOp struct {
	addr uint64
	bank int32
	kind int8
}

// health is the always-on accounting state. Everything below mu is shared
// with concurrent snapshot readers and guarded by it; the pend buffer is
// private to the single simulation thread and never locked. Accessors may
// therefore lag the simulation by up to healthBatch media ops; sync (via
// Device.SyncHealth or Device.Flush, writer-side) publishes everything.
type health struct {
	mu          sync.Mutex
	banks       []bankHealth
	regions     []regionHealth
	regionShift uint // log2 lines per region
	hist        [wearHistBuckets]uint64

	// Per-line wear: pages[addr>>wearPageShift] holds line addr at
	// offset addr&wearPageMask, pages allocated on first touch; over holds
	// the exact count of every line whose slot or entry reads wearEscape.
	pages []*wearPage
	over  map[uint64]uint64

	// Staged ops, simulation-thread private (not guarded by mu).
	pend  [healthBatch]pendOp
	pendN int
}

func (h *health) init(banks int, lines int64) {
	h.banks = make([]bankHealth, banks)
	h.pages = make([]*wearPage, (lines+wearPageSize-1)>>wearPageShift)
	h.over = make(map[uint64]uint64)
	n := int64(healthRegions)
	if lines < n {
		n = lines
	}
	if n < 1 {
		n = 1
	}
	per := uint64((lines + n - 1) / n)
	if per < 1 {
		per = 1
	}
	// Round lines-per-region up to a power of two so the per-write region
	// index is a shift, not a 64-bit division.
	h.regionShift = uint(bits.Len64(per - 1))
	nr := (uint64(lines) + (uint64(1) << h.regionShift) - 1) >> h.regionShift
	if nr < 1 {
		nr = 1
	}
	h.regions = make([]regionHealth, nr)
}

// wearBucket returns the log2 bucket index of wear w (w >= 1).
func wearBucket(w uint64) int { return bits.Len64(w) - 1 }

// wearOf returns addr's write count. Caller holds h.mu.
func (h *health) wearOf(addr uint64) uint64 {
	pg := h.pages[addr>>wearPageShift]
	if pg == nil {
		return 0
	}
	if s := pg.count(addr & wearPageMask); s != wearEscape {
		return uint64(s)
	}
	return h.over[addr]
}

// bumpOver counts one write of addr, whose slot or entry holds s, at least
// wearEscape-1, and returns its new count: the line's first write past
// wearEscape-1 moves its count to the side map, and the caller stores
// wearEscape in its place. Caller holds h.mu.
func (h *health) bumpOver(addr uint64, s uint16) uint64 {
	w, ok := h.over[addr]
	if !ok {
		w = uint64(s)
	}
	w++
	h.over[addr] = w
	return w
}

// noteWrite stages one media write of addr. Simulation thread only; no
// locking unless the batch fills.
func (h *health) noteWrite(addr uint64, bank int) {
	h.pend[h.pendN] = pendOp{addr: addr, bank: int32(bank), kind: pendWrite}
	h.pendN++
	if h.pendN == healthBatch {
		h.sync()
	}
}

// noteRead stages one media read against bank. Simulation thread only.
func (h *health) noteRead(bank int, rowHit bool) {
	kind := int8(pendRead)
	if rowHit {
		kind = pendReadHit
	}
	h.pend[h.pendN] = pendOp{bank: int32(bank), kind: kind}
	h.pendN++
	if h.pendN == healthBatch {
		h.sync()
	}
}

// sync folds the staged ops into the shared state. Simulation thread only
// (it reads the private pend buffer); readers block only for the replay.
func (h *health) sync() {
	if h.pendN == 0 {
		return
	}
	h.mu.Lock()
	for i := 0; i < h.pendN; i++ {
		op := &h.pend[i]
		if op.kind == pendWrite {
			h.applyWrite(op.addr, int(op.bank))
		} else {
			h.applyRead(int(op.bank), op.kind == pendReadHit)
		}
	}
	h.pendN = 0
	h.mu.Unlock()
}

// applyWrite bumps addr's wear counter and every write-side aggregate for
// one media write: a direct index on a dense page, one probe of a block.
// Caller holds h.mu.
func (h *health) applyWrite(addr uint64, bank int) {
	pg := h.pages[addr>>wearPageShift]
	if pg == nil {
		pg = &wearPage{block: make([]uint32, wearBlockMin)}
		h.pages[addr>>wearPageShift] = pg
	}
	off := addr & wearPageMask
	var w uint64
	if pg.dense != nil {
		if s := pg.dense[off]; s < wearEscape-1 {
			w = uint64(s) + 1
			pg.dense[off] = uint16(w)
		} else {
			w = h.bumpOver(addr, s)
			pg.dense[off] = wearEscape
		}
	} else {
		i := pg.find(off)
		if e := pg.block[i]; e == 0 {
			w = 1
			if (pg.used+1)*4 > len(pg.block)*3 {
				pg.grow()
				pg.put(uint32(off+1)<<16 | 1)
			} else {
				pg.block[i] = uint32(off+1)<<16 | 1
				pg.used++
			}
		} else if s := uint16(e); s < wearEscape-1 {
			w = uint64(s) + 1
			pg.block[i] = e + 1
		} else {
			w = h.bumpOver(addr, s)
			pg.block[i] = e | wearEscape
		}
	}

	b := &h.banks[bank]
	b.writes++
	r := &h.regions[addr>>h.regionShift]
	r.writes++
	if w == 1 {
		b.lines++
		r.lines++
		h.hist[0]++
	} else if w&(w-1) == 0 { // a power of two starts the next log2 bucket
		k := wearBucket(w)
		h.hist[k-1]--
		h.hist[k]++
	}
	if w > b.maxWear {
		b.maxWear = w
	}
	if w > r.maxWear {
		r.maxWear = w
	}
}

// applyRead records one media read against bank. Caller holds h.mu.
func (h *health) applyRead(bank int, rowHit bool) {
	b := &h.banks[bank]
	b.reads++
	if rowHit {
		b.rowHits++
	}
}

// p99Wear derives the ~99th-percentile per-line wear from a log2 wear
// histogram over lines lines: the answer is the upper bound of the bucket
// holding the 1% most-worn line, capped at maxWear (the bucket's upper
// bound can exceed the most-worn line; the true p99 never does).
func p99Wear(hist *[wearHistBuckets]uint64, lines, maxWear uint64) uint64 {
	if lines == 0 {
		return 0
	}
	need := max(lines-lines*99/100, 1)
	var cum uint64
	for i := wearHistBuckets - 1; i >= 0; i-- {
		cum += hist[i]
		if cum >= need {
			return min(bucketHi(i), maxWear)
		}
	}
	return 0
}

// bucketHi is the largest wear log2 bucket i holds.
func bucketHi(i int) uint64 {
	if i == 63 {
		return ^uint64(0)
	}
	return uint64(1)<<(uint(i)+1) - 1
}

// wearBuckets lists hist's non-empty buckets.
func wearBuckets(hist *[wearHistBuckets]uint64) []WearBucket {
	var out []WearBucket
	for i, n := range hist {
		if n != 0 {
			out = append(out, WearBucket{Lo: uint64(1) << uint(i), Hi: bucketHi(i), Lines: n})
		}
	}
	return out
}

// HealthSummary is the scalar device-health view: totals, wear shape and
// the media energy split. It contains no slices so the telemetry gauge
// path can fetch it allocation-free at scrape time.
type HealthSummary struct {
	Reads         uint64  `json:"reads"`
	Writes        uint64  `json:"writes"`
	RowHits       uint64  `json:"row_hits"`
	LinesTouched  uint64  `json:"lines_touched"`
	MaxWear       uint64  `json:"max_wear"`
	P99Wear       uint64  `json:"p99_wear"` // approximate (log2 bucket upper bound)
	ReadEnergyNJ  float64 `json:"read_energy_nj"`
	WriteEnergyNJ float64 `json:"write_energy_nj"`
}

// MeanWear is the average write count over lines ever written.
func (h HealthSummary) MeanWear() float64 {
	if h.LinesTouched == 0 {
		return 0
	}
	return float64(h.Writes) / float64(h.LinesTouched)
}

// WearSkew is MaxWear over MeanWear — the wear-leveling early-warning
// signal (1.0 is perfectly level; a hammered line drives it up).
func (h HealthSummary) WearSkew() float64 {
	m := h.MeanWear()
	if m == 0 {
		return 0
	}
	return float64(h.MaxWear) / m
}

// BankHealth is one bank's activity counters in a HealthSnapshot.
type BankHealth struct {
	Bank         int     `json:"bank"`
	Reads        uint64  `json:"reads"`
	Writes       uint64  `json:"writes"`
	RowHits      uint64  `json:"row_hits"`
	MaxWear      uint64  `json:"max_wear"`
	LinesTouched uint64  `json:"lines_touched"`
	EnergyNJ     float64 `json:"energy_nj"`
}

// MeanWear is the bank's average per-line write count.
func (b BankHealth) MeanWear() float64 {
	if b.LinesTouched == 0 {
		return 0
	}
	return float64(b.Writes) / float64(b.LinesTouched)
}

// RegionHealth is one address region's write/wear counters.
type RegionHealth struct {
	Region       int    `json:"region"`
	FirstLine    uint64 `json:"first_line"`
	Lines        uint64 `json:"lines"`
	Writes       uint64 `json:"writes"`
	MaxWear      uint64 `json:"max_wear"`
	LinesTouched uint64 `json:"lines_touched"`
}

// WearBucket is one non-empty log2 bucket of the wear histogram: Lines
// lines have a per-line write count in [Lo, Hi].
type WearBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Lines uint64 `json:"lines"`
}

// HealthSnapshot is the full device-health view: the scalar summary plus
// per-bank rows (the wear heatmap), per-region rows and the bounded wear
// histogram.
type HealthSnapshot struct {
	HealthSummary
	Banks    []BankHealth   `json:"banks"`
	Regions  []RegionHealth `json:"regions"`
	WearHist []WearBucket   `json:"wear_hist"`
}

// summary builds the scalar view; every device-wide total is derived from
// the bank rows. Caller holds h.mu.
func (h *health) summary(cfg *config.PCM) HealthSummary {
	var s HealthSummary
	for i := range h.banks {
		b := &h.banks[i]
		s.Reads += b.reads
		s.Writes += b.writes
		s.RowHits += b.rowHits
		s.LinesTouched += b.lines
		s.MaxWear = max(s.MaxWear, b.maxWear)
	}
	s.P99Wear = p99Wear(&h.hist, s.LinesTouched, s.MaxWear)
	s.ReadEnergyNJ = float64(s.Reads) * cfg.ReadEnergy
	s.WriteEnergyNJ = float64(s.Writes) * cfg.WriteEnergy
	return s
}

// HealthSummary returns the scalar health view. Safe to call concurrently
// with the simulation; does not allocate.
func (d *Device) HealthSummary() HealthSummary {
	d.health.mu.Lock()
	defer d.health.mu.Unlock()
	return d.health.summary(&d.cfg)
}

// HealthSnapshot returns the full health view (summary + banks + regions +
// wear histogram). Safe to call concurrently with the simulation; intended
// for serving endpoints, so it allocates its result.
func (d *Device) HealthSnapshot() HealthSnapshot {
	h := &d.health
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HealthSnapshot{
		HealthSummary: h.summary(&d.cfg),
		Banks:         make([]BankHealth, len(h.banks)),
		WearHist:      wearBuckets(&h.hist),
	}
	for i := range h.banks {
		b := &h.banks[i]
		snap.Banks[i] = BankHealth{
			Bank:         i,
			Reads:        b.reads,
			Writes:       b.writes,
			RowHits:      b.rowHits,
			MaxWear:      b.maxWear,
			LinesTouched: b.lines,
			EnergyNJ:     float64(b.reads)*d.cfg.ReadEnergy + float64(b.writes)*d.cfg.WriteEnergy,
		}
	}
	regionLines := uint64(1) << h.regionShift
	for i := range h.regions {
		r := &h.regions[i]
		if r.writes == 0 {
			continue
		}
		snap.Regions = append(snap.Regions, RegionHealth{
			Region:       i,
			FirstLine:    uint64(i) * regionLines,
			Lines:        regionLines,
			Writes:       r.writes,
			MaxWear:      r.maxWear,
			LinesTouched: r.lines,
		})
	}
	return snap
}

// MergeHealth combines per-shard snapshots into one device-wide view: totals
// sum, banks and regions concatenate (renumbered in shard order), histogram
// buckets merge, and P99 is re-derived from the merged histogram.
func MergeHealth(snaps []HealthSnapshot) HealthSnapshot {
	var out HealthSnapshot
	var hist [wearHistBuckets]uint64
	for _, s := range snaps {
		out.Reads += s.Reads
		out.Writes += s.Writes
		out.RowHits += s.RowHits
		out.LinesTouched += s.LinesTouched
		out.ReadEnergyNJ += s.ReadEnergyNJ
		out.WriteEnergyNJ += s.WriteEnergyNJ
		out.MaxWear = max(out.MaxWear, s.MaxWear)
		for _, b := range s.Banks {
			b.Bank = len(out.Banks)
			out.Banks = append(out.Banks, b)
		}
		for _, r := range s.Regions {
			r.Region = len(out.Regions)
			out.Regions = append(out.Regions, r)
		}
		for _, wb := range s.WearHist {
			hist[wearBucket(wb.Lo)] += wb.Lines
		}
	}
	out.P99Wear = p99Wear(&hist, out.LinesTouched, out.MaxWear)
	out.WearHist = wearBuckets(&hist)
	return out
}
