package nvm

import (
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
// against the exact per-line wear map under a random workload.
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

// TestMetadataRegionWearFootprint pins what wear costs the metadata
// region: 10 000 writes hash-scattered over a 256 MiB device's last 1 Mi
// lines touch every one of its 256 wear pages, and those pages may hold
// no more than 8 KiB each.
func TestMetadataRegionWearFootprint(t *testing.T) {
	cfg := config.Default().PCM
	cfg.CapacityBytes = 256 << 20
	d := New(cfg)
	const region = 1 << 20
	first := uint64(d.Lines()) - region
	for i := uint64(0); i < 10_000; i++ {
		// Fibonacci hashing onto the region's 20 address bits.
		d.WriteMeta(first+(i*0x9E3779B97F4A7C15)>>44, sim.Time(i)*sim.Microsecond)
	}
	d.SyncHealth()
	pages := 0
	for _, pg := range d.health.pages {
		if pg != nil {
			pages++
		}
	}
	bytes := uintptr(pages) * unsafe.Sizeof(wearPage{})
	if pages != region/wearPageSize || bytes > region/wearPageSize*8<<10 {
		t.Fatalf("10k metadata writes hold %d wear pages, %d bytes; want all 256 pages of the region, at most 8 KiB each", pages, bytes)
	}
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
// another polls every concurrent-safe wear/health accessor, and line 7
// crosses the wear slot's escape to the side map meanwhile: a reader must
// never see its count, or the device's maximum, go down, and the writer
// goes on only once a reader has seen the crossing. Run under -race this
// is the device-level half of the wear-concurrency guarantee (the
// engine-level half lives in internal/shard).
func TestWearReadsRaceWithWrites(t *testing.T) {
	d := New(testCfg())
	done := make(chan struct{})
	var seen7 atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last7, lastMax uint64
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
			if w7 < last7 || w.MaxWear < lastMax {
				t.Errorf("wear went down: line 7 %d -> %d, max %d -> %d", last7, w7, lastMax, w.MaxWear)
			}
			last7, lastMax = w7, w.MaxWear
			seen7.Store(w7)
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
	close(done)
	wg.Wait()
	d.SyncHealth()
	if s := d.Wear(); s.TotalWrites != writes || s.MaxWear != line7 {
		t.Fatalf("TotalWrites=%d MaxWear=%d, want %d/%d", s.TotalWrites, s.MaxWear, writes, line7)
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
