package nvm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/sim"
)

func TestHealthAccounting(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	now := sim.Time(0)
	var line ecc.Line
	// One hammered line plus nine cold ones.
	for i := 0; i < 10; i++ {
		d.Write(0, &line, now)
		now += sim.Microsecond
	}
	for a := uint64(1); a < 10; a++ {
		d.Write(a, &line, now)
		now += sim.Microsecond
	}
	for a := uint64(0); a < 5; a++ {
		d.Read(a, now)
		now += sim.Microsecond
	}

	d.SyncHealth() // publish staged accounting before exact assertions
	s := d.HealthSummary()
	if s.Writes != 19 || s.Reads != 5 {
		t.Fatalf("writes=%d reads=%d, want 19/5", s.Writes, s.Reads)
	}
	if s.LinesTouched != 10 || s.MaxWear != 10 {
		t.Fatalf("linesTouched=%d maxWear=%d, want 10/10", s.LinesTouched, s.MaxWear)
	}
	if got, want := s.MeanWear(), 1.9; got != want {
		t.Fatalf("MeanWear=%g, want %g", got, want)
	}
	if s.WearSkew() <= 1 {
		t.Fatalf("WearSkew=%g, want > 1 for hammered line", s.WearSkew())
	}
	// Wear 10 lives in log2 bucket [8,15] and is the top 1-of-10 line; the
	// bucket upper bound (15) is clamped to the true max wear.
	if s.P99Wear != 10 {
		t.Fatalf("P99Wear=%d, want 10 (bucket bound clamped to max wear)", s.P99Wear)
	}
	if want := float64(s.Writes) * cfg.WriteEnergy; s.WriteEnergyNJ != want {
		t.Fatalf("WriteEnergyNJ=%g, want %g", s.WriteEnergyNJ, want)
	}
	if want := float64(s.Reads) * cfg.ReadEnergy; s.ReadEnergyNJ != want {
		t.Fatalf("ReadEnergyNJ=%g, want %g", s.ReadEnergyNJ, want)
	}

	snap := d.HealthSnapshot()
	if len(snap.Banks) != cfg.Banks {
		t.Fatalf("got %d bank rows, want %d", len(snap.Banks), cfg.Banks)
	}
	var bw, br, blines uint64
	for _, b := range snap.Banks {
		bw += b.Writes
		br += b.Reads
		blines += b.LinesTouched
	}
	if bw != s.Writes || br != s.Reads || blines != s.LinesTouched {
		t.Fatalf("bank sums writes=%d reads=%d lines=%d, want %d/%d/%d",
			bw, br, blines, s.Writes, s.Reads, s.LinesTouched)
	}
	// addr 0 maps to bank 0: the hammered line must show there.
	if snap.Banks[0].MaxWear != 10 {
		t.Fatalf("bank0 maxWear=%d, want 10", snap.Banks[0].MaxWear)
	}
	var rw, rlines uint64
	for _, r := range snap.Regions {
		rw += r.Writes
		rlines += r.LinesTouched
	}
	if rw != s.Writes || rlines != s.LinesTouched {
		t.Fatalf("region sums writes=%d lines=%d, want %d/%d", rw, rlines, s.Writes, s.LinesTouched)
	}
	var histLines uint64
	for _, wb := range snap.WearHist {
		if wb.Lo > wb.Hi {
			t.Fatalf("bad bucket bounds [%d,%d]", wb.Lo, wb.Hi)
		}
		histLines += wb.Lines
	}
	if histLines != s.LinesTouched {
		t.Fatalf("hist lines=%d, want %d", histLines, s.LinesTouched)
	}
}

// TestHealthMatchesWear cross-checks the incremental health aggregates
// against the exact per-line wear under a random workload.
func TestHealthMatchesWear(t *testing.T) {
	d := New(testCfg())
	rng := rand.New(rand.NewSource(7))
	var line ecc.Line
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		// Zipf-ish: low addresses much hotter.
		addr := uint64(rng.Intn(1 + rng.Intn(256)))
		d.Write(addr, &line, now)
		now += 200 * sim.Nanosecond
	}
	d.SyncHealth()
	exact := d.Wear()
	s := d.HealthSummary()
	if s.Writes != exact.TotalWrites {
		t.Fatalf("health writes=%d, exact=%d", s.Writes, exact.TotalWrites)
	}
	if int(s.LinesTouched) != exact.LinesTouched {
		t.Fatalf("health lines=%d, exact=%d", s.LinesTouched, exact.LinesTouched)
	}
	if s.MaxWear != exact.MaxWear {
		t.Fatalf("health max=%d, exact=%d", s.MaxWear, exact.MaxWear)
	}
	// The approximate P99 is the log2-bucket upper bound of the exact one.
	if s.P99Wear < exact.P99Wear || (exact.P99Wear > 1 && s.P99Wear > 2*exact.P99Wear) {
		t.Fatalf("approx P99=%d out of range for exact %d", s.P99Wear, exact.P99Wear)
	}
}

// checkWearExact compares every wear accessor with the per-line counts in
// want, which hold every write d has seen. The caller has synced d.
func checkWearExact(t *testing.T, d *Device, want map[uint64]uint64) {
	t.Helper()
	var total, top uint64
	counts := make([]uint64, 0, len(want))
	var hist [wearHistBuckets]uint64
	bankMax := make([]uint64, len(d.banks))
	for addr, c := range want {
		if got := d.WearOf(addr); got != c {
			t.Fatalf("WearOf(%d) = %d, want %d", addr, got, c)
		}
		counts = append(counts, c)
		total += c
		top = max(top, c)
		hist[bits.Len64(c)-1]++
		b := addr % uint64(len(d.banks))
		bankMax[b] = max(bankMax[b], c)
	}
	slices.Sort(counts)
	exact := WearSummary{
		TotalWrites:  total,
		LinesTouched: len(counts),
		MaxWear:      top,
		MeanWear:     float64(total) / float64(len(counts)),
		P99Wear:      counts[len(counts)*99/100],
	}
	if got := d.Wear(); got != exact {
		t.Fatalf("Wear() = %+v, want %+v", got, exact)
	}
	snap := d.HealthSnapshot()
	if s := snap.HealthSummary; s.Writes != total || s.LinesTouched != uint64(len(counts)) || s.MaxWear != top {
		t.Fatalf("health writes=%d lines=%d max=%d, want %d/%d/%d",
			s.Writes, s.LinesTouched, s.MaxWear, total, len(counts), top)
	}
	if s := d.HealthSummary(); s != snap.HealthSummary {
		t.Fatalf("HealthSummary %+v differs from the snapshot's %+v", s, snap.HealthSummary)
	}
	var gotHist [wearHistBuckets]uint64
	for _, wb := range snap.WearHist {
		gotHist[wearBucket(wb.Lo)] = wb.Lines
	}
	if gotHist != hist {
		t.Fatalf("wear histogram %v, want %v", snap.WearHist, hist)
	}
	for _, b := range snap.Banks {
		if b.MaxWear != bankMax[b.Bank] {
			t.Fatalf("bank %d max wear %d, want %d", b.Bank, b.MaxWear, bankMax[b.Bank])
		}
	}
}

// TestWearExactPastEscape drives a data line and a metadata line past the
// last count a 16-bit wear slot holds, beside a line that stops one write
// short of it and a scattered crowd, and checks every wear accessor
// against a plain map at the crossing and well past it.
func TestWearExactPastEscape(t *testing.T) {
	d := New(testCfg())
	want := map[uint64]uint64{}
	var line ecc.Line
	now := sim.Time(0)
	write := func(addr uint64, meta bool) {
		if meta {
			d.WriteMeta(addr, now)
		} else {
			d.Write(addr, &line, now)
		}
		want[addr]++
		now += 100 * sim.Nanosecond
	}
	const hot, hotMeta, edge = 5, 1<<19 + 3, 4096 + 9
	rng := rand.New(rand.NewSource(3))
	crowd := func() uint64 { return 1<<14 + uint64(rng.Intn(1<<14)) }
	for i := 0; i < wearEscape; i++ {
		write(hot, false)
		write(hotMeta, true)
		if i < wearEscape-1 {
			write(edge, false)
		}
		if i%16 == 0 {
			write(crowd(), i%32 == 0)
		}
	}
	d.SyncHealth()
	if want[hot] != wearEscape || want[hotMeta] != wearEscape || want[edge] != wearEscape-1 {
		t.Fatalf("setup: hot=%d meta=%d edge=%d", want[hot], want[hotMeta], want[edge])
	}
	checkWearExact(t, d, want)

	for i := 0; i < 3000; i++ {
		write(hot, false)
		if i%3 == 0 {
			write(hotMeta, true)
		}
		write(crowd(), i%2 == 0)
	}
	d.SyncHealth()
	checkWearExact(t, d, want)
}

// wearBytes is what d's wear pages hold: each touched page's header, plus
// its dense slots or its block's capacity (not its length).
func wearBytes(d *Device) (pages int, bytes uintptr) {
	for _, pg := range d.health.pages {
		if pg == nil {
			continue
		}
		pages++
		bytes += unsafe.Sizeof(*pg) + uintptr(cap(pg.block))*unsafe.Sizeof(uint32(0))
		if pg.dense != nil {
			bytes += unsafe.Sizeof(*pg.dense)
		}
	}
	return pages, bytes
}

// TestMetadataRegionWearFootprint pins what wear costs the metadata
// region: 10 000 writes hash-scattered over a 256 MiB device's last 1 Mi
// lines touch every one of its 256 wear pages, and those pages may hold
// no more than 16 B per written line plus 64 B per page, so the store
// grows with the lines written, not with the region.
func TestMetadataRegionWearFootprint(t *testing.T) {
	cfg := config.Default().PCM
	cfg.CapacityBytes = 256 << 20
	d := New(cfg)
	const region = 1 << 20
	first := uint64(d.Lines()) - region
	written := map[uint64]bool{}
	for i := uint64(0); i < 10_000; i++ {
		// Fibonacci hashing onto the region's 20 address bits.
		addr := first + (i*0x9E3779B97F4A7C15)>>44
		d.WriteMeta(addr, sim.Time(i)*sim.Microsecond)
		written[addr] = true
	}
	d.SyncHealth()
	pages, bytes := wearBytes(d)
	limit := uintptr(16*len(written) + 64*pages)
	if pages != region/wearPageSize || bytes > limit {
		t.Fatalf("%d metadata lines hold %d wear pages, %d bytes; want all 256 pages of the region, at most %d bytes",
			len(written), pages, bytes, limit)
	}
}

// TestWearStoreShapesExact writes random lines across pages and drives
// one page through every shape its wear store takes: a block of
// wearBlockMin entries, an escaped entry, block growth carrying that
// entry, the switch to dense slots, and escapes on a dense page. After
// each phase it checks the shapes reached and every wear accessor
// against a plain map.
func TestWearStoreShapesExact(t *testing.T) {
	d := New(testCfg())
	rng := rand.New(rand.NewSource(11))
	want := map[uint64]uint64{}
	var line ecc.Line
	now := sim.Time(0)
	write := func(addr uint64) {
		if addr%2 == 0 {
			d.Write(addr, &line, now)
		} else {
			d.WriteMeta(addr, now)
		}
		want[addr]++
		now += 100 * sim.Nanosecond
	}
	page := func(p uint64) *wearPage { return d.health.pages[p] }
	// newLine returns a line of page p that has not been written yet.
	newLine := func(p uint64) uint64 {
		for {
			if a := p<<wearPageShift | uint64(rng.Intn(wearPageSize)); want[a] == 0 {
				return a
			}
		}
	}
	phase := func(name string, shapes func() string) {
		t.Helper()
		d.SyncHealth()
		if bad := shapes(); bad != "" {
			t.Fatalf("%s: %s", name, bad)
		}
		checkWearExact(t, d, want)
	}

	// A few lines, some rewritten, in each of 32 scattered pages.
	const hot = 5 // the page driven through every shape
	pages := rng.Perm(256)[:32]
	pages[0] = hot
	for _, p := range pages {
		n := 1 + rng.Intn(6)
		if p == hot {
			n = 4 // room for two more lines in its first block
		}
		for range n {
			a := newLine(uint64(p))
			for range 1 + rng.Intn(4) {
				write(a)
			}
		}
	}
	phase("small blocks", func() string {
		for _, p := range pages {
			if pg := page(uint64(p)); pg.dense != nil || len(pg.block) != wearBlockMin {
				return fmt.Sprintf("page %d: dense=%v block=%d, want a block of %d", p, pg.dense != nil, len(pg.block), wearBlockMin)
			}
		}
		return ""
	})

	// A line of the hot page past the escape, and one a write short of it.
	esc, edge := newLine(hot), newLine(hot)
	for i := 0; i < wearEscape+10; i++ {
		write(esc)
		if i < wearEscape-1 {
			write(edge)
		}
	}
	phase("escape in a block", func() string {
		if pg := page(hot); pg.dense != nil || len(pg.block) != wearBlockMin {
			return fmt.Sprintf("hot page: dense=%v block=%d, want a block of %d", pg.dense != nil, len(pg.block), wearBlockMin)
		}
		return ""
	})

	// 600 more lines grow the hot page's block, rehashing both entries.
	for range 600 {
		write(newLine(hot))
		if rng.Intn(8) == 0 {
			write(esc)
		}
	}
	phase("grown block", func() string {
		pg := page(hot)
		if pg.dense != nil || len(pg.block) != wearBlockDense/2 || pg.used*4 > len(pg.block)*3 {
			return fmt.Sprintf("hot page: dense=%v block=%d used=%d, want a block of %d at most 3/4 full",
				pg.dense != nil, len(pg.block), pg.used, wearBlockDense/2)
		}
		return ""
	})

	// Past 3/4 of the largest block, the page turns dense; another page is
	// written end to end and turns dense on the way.
	for range 300 {
		write(newLine(hot))
	}
	write(esc)
	write(edge) // its count reaches wearEscape in a dense slot
	for a := uint64(0); a < wearPageSize; a++ {
		write(9<<wearPageShift | a)
	}
	phase("dense", func() string {
		for _, p := range []uint64{hot, 9} {
			if pg := page(p); pg.dense == nil || pg.block != nil {
				return fmt.Sprintf("page %d: dense=%v block=%d, want dense", p, pg.dense != nil, len(pg.block))
			}
		}
		return ""
	})

	// A line of the dense page past the escape, beside the moved ones.
	for i := 0; i < wearEscape+3; i++ {
		write(9<<wearPageShift | 77)
		if i%64 == 0 {
			write(esc)
			write(newLine(uint64(pages[1+rng.Intn(len(pages)-1)])))
		}
	}
	phase("escape on a dense page", func() string { return "" })
}

func TestWearSummaryEdgeCases(t *testing.T) {
	d := New(testCfg())
	// Empty device: all zeros, no division by zero.
	if s := d.Wear(); s != (WearSummary{}) {
		t.Fatalf("empty device wear = %+v, want zero", s)
	}
	if s := d.HealthSummary(); s.MeanWear() != 0 || s.WearSkew() != 0 || s.P99Wear != 0 {
		t.Fatalf("empty device health = %+v", s)
	}
	// Single line, single write.
	var line ecc.Line
	d.Write(3, &line, 0)
	d.SyncHealth()
	s := d.Wear()
	if s.TotalWrites != 1 || s.LinesTouched != 1 || s.MaxWear != 1 || s.MeanWear != 1 || s.P99Wear != 1 {
		t.Fatalf("single-write wear = %+v", s)
	}
	// Single line, several writes: every percentile is that line.
	for i := 0; i < 4; i++ {
		d.Write(3, &line, 0)
	}
	d.SyncHealth()
	s = d.Wear()
	if s.TotalWrites != 5 || s.LinesTouched != 1 || s.MaxWear != 5 || s.P99Wear != 5 {
		t.Fatalf("hammered single-line wear = %+v", s)
	}
	if s.MeanWear != 5 {
		t.Fatalf("MeanWear=%g, want 5", s.MeanWear)
	}
}

// TestWearReadsRaceWithWrites drives the device from one goroutine while
// another polls every concurrent-safe wear/health accessor. Meanwhile
// line 7 crosses the wear escape to the side map while its page is a
// block, and then that page turns dense as 512 more of its lines are
// written, 64 at a time: a reader must never see line 7's count, the
// device's maximum or its lines touched go down, and the writer goes on
// only once a reader has seen the crossing and each step of the growth.
// Run under -race this is the device-level half of the wear-concurrency
// guarantee (the engine-level half lives in internal/shard).
func TestWearReadsRaceWithWrites(t *testing.T) {
	d := New(testCfg())
	done := make(chan struct{})
	var seen7, seenLines atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last7, lastMax, lastLines uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			w := d.Wear()
			w7 := d.WearOf(7)
			_ = d.HealthSummary()
			_ = d.HealthSnapshot()
			lines := uint64(w.LinesTouched)
			if w7 < last7 || w.MaxWear < lastMax || lines < lastLines {
				t.Errorf("wear went down: line 7 %d -> %d, max %d -> %d, lines %d -> %d",
					last7, w7, lastMax, w.MaxWear, lastLines, lines)
			}
			last7, lastMax, lastLines = w7, w.MaxWear, lines
			seen7.Store(w7)
			seenLines.Store(lines)
		}
	}()
	var line ecc.Line
	now := sim.Time(0)
	var writes, line7 uint64
	write := func(addr uint64) {
		d.Write(addr, &line, now)
		writes++
		if addr == 7 {
			line7++
		}
		now += 100 * sim.Nanosecond
	}
	for i := 0; i < 20000; i++ {
		write(uint64(i % 512))
		if i%3 == 0 {
			d.Read(uint64(i%512), now)
		}
	}
	for line7 < wearEscape+500 {
		write(7)
		if line7 == wearEscape {
			d.SyncHealth()
			for seen7.Load() < wearEscape {
				runtime.Gosched()
			}
		}
		if line7%64 == 0 {
			write(line7 % 512)
		}
	}
	for a := uint64(512); a < 1024; a++ {
		write(a)
		if a%64 == 63 {
			d.SyncHealth()
			for seenLines.Load() <= a {
				runtime.Gosched()
			}
		}
	}
	close(done)
	wg.Wait()
	d.SyncHealth()
	if d.health.pages[0].dense == nil {
		t.Fatal("page 0 holds 1024 lines and is still a block")
	}
	if s := d.Wear(); s.TotalWrites != writes || s.MaxWear != line7 || s.LinesTouched != 1024 {
		t.Fatalf("TotalWrites=%d MaxWear=%d LinesTouched=%d, want %d/%d/1024",
			s.TotalWrites, s.MaxWear, s.LinesTouched, writes, line7)
	}
	if w := d.WearOf(7); w != line7 {
		t.Fatalf("WearOf(7) = %d, want %d", w, line7)
	}
}

func TestMergeHealth(t *testing.T) {
	var snaps []HealthSnapshot
	var line ecc.Line
	for sh := 0; sh < 2; sh++ {
		d := New(testCfg())
		for i := 0; i < 100*(sh+1); i++ {
			d.Write(uint64(i%(10*(sh+1))), &line, 0)
		}
		d.SyncHealth()
		snaps = append(snaps, d.HealthSnapshot())
	}
	m := MergeHealth(snaps)
	if m.Writes != 300 {
		t.Fatalf("merged writes=%d, want 300", m.Writes)
	}
	if m.LinesTouched != 30 {
		t.Fatalf("merged lines=%d, want 30", m.LinesTouched)
	}
	if want := snaps[1].MaxWear; m.MaxWear != want {
		t.Fatalf("merged max=%d, want %d", m.MaxWear, want)
	}
	if len(m.Banks) != len(snaps[0].Banks)+len(snaps[1].Banks) {
		t.Fatalf("merged banks=%d", len(m.Banks))
	}
	for i, b := range m.Banks {
		if b.Bank != i {
			t.Fatalf("bank %d renumbered as %d", i, b.Bank)
		}
	}
	var histLines uint64
	for _, wb := range m.WearHist {
		histLines += wb.Lines
	}
	if histLines != m.LinesTouched {
		t.Fatalf("merged hist lines=%d, want %d", histLines, m.LinesTouched)
	}
	if m.P99Wear == 0 || m.P99Wear < m.MaxWear/2 {
		t.Fatalf("merged P99=%d implausible vs max %d", m.P99Wear, m.MaxWear)
	}
}
