package dedup_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/esdsim/esd/internal/cache"
	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/core"
	"github.com/esdsim/esd/internal/dedup"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/experiments"
	"github.com/esdsim/esd/internal/media"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/xrand"
)

// metaCounters are a scheme's metadata-cache counters: its fingerprint
// cache's statistics (ESD's EFIT, SHA1's and DeWrite's fingerprint
// cache), its AMT cache's, and the AMT's NVMM table reads and writes.
type metaCounters struct {
	FP, AMT               cache.Stats
	NVMMReads, NVMMWrites uint64
}

func schemeMeta(s memctrl.Scheme) metaCounters {
	var m metaCounters
	var amt *memctrl.AMT
	switch s := s.(type) {
	case *core.ESD:
		m.FP, amt = s.EFITStats(), s.AMT
	case *dedup.SHA1:
		m.FP, amt = s.FPCacheStats(), s.AMT
	case *dedup.DeWrite:
		m.FP, amt = s.FPCacheStats(), s.AMT
	case *dedup.BCD:
		amt = s.AMT
	}
	if amt != nil {
		m.AMT, m.NVMMReads, m.NVMMWrites = amt.CacheStats(), amt.NVMMReads, amt.NVMMWrites
	}
	return m
}

// How writes are grouped into batches must not be observable: one-op
// batches and multi-op batches make the same dedup decisions, physical
// placements, counters and statistics, metadata-cache counters, energy,
// device traffic and wear, hybrid-tier activity, and read back the same
// data. This drives one op stream through an engine taking one Write per
// op (for Baseline, SHA1 and ESD a one-op batch of the scheme's kernel)
// and an engine taking batchSize-op WriteBatch calls (same seed, same
// config) and compares everything except latencies, which legitimately
// differ because deferred device writes see different bank-queue states.
// The metadata-cache counters are what a batch's touch stage would move
// first if it probed through a counting lookup.
//
// Only the rows at batchSize 5, 8 and 32 of esd, esd+caram, baseline and
// dedup-sha1 compare two code paths, a one-op batch with a multi-op one.
// At batchSize 1 both engines run the same one-op batch, and DeWrite and
// BCD, which have no batch kernel, run the same scalar Write at every
// size (memctrl.WriteBatch loops it); those rows pin that the two engines
// are built alike.
//
// esd+caram runs with a DRAM tier of 128 lines against the stream's 512
// addresses, so its buffer promotes, demotes and writes back throughout.
// A batch defers its unique stores to its end, or to a mid-batch flush,
// so the tier sees a stored line's write after the compare reads and
// duplicate hints of the ops that follow it in the batch, and its LRU
// (and its heat decay, which counts accesses) sees that order. At batch
// 32 a later op's compare read promotes its candidate before an earlier
// op's deferred store promotes its own line, the two promotions demote
// each other's LRU victims, and the runs end one promotion, demotion and
// write-back apart. So on these rows the tier's promotion, demotion,
// write-back, resident and dirty counts are not compared, nor the PCM
// energy and wear that write-backs and DRAM fills move; the PCM write
// count is compared less its write-backs. Everything else, the tier's
// hits, misses, WAL appends and absorbed writes included, is compared.
// DESIGN.md §13 describes the effect.
func testScheme(t *testing.T, name string, batchSize int) {
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 24
	cfg.Meta.EFITCacheBytes = 16 << 10
	cfg.Meta.AMTCacheBytes = 16 << 10
	cfg.SHA1.FPCacheBytes = 16 << 10
	cfg.Media.DRAM.CapacityBytes = 8 << 10
	if msg := cfg.Validate(); msg != "" {
		t.Fatal(msg)
	}
	envS, envB := memctrl.NewEnv(cfg), memctrl.NewEnv(cfg)
	scalar, err := experiments.NewScheme(envS, name)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := experiments.NewScheme(envB, name)
	if err != nil {
		t.Fatal(err)
	}

	const ops = 4000
	const addrSpace = 512
	rng := xrand.New(42)
	at := sim.Time(0)
	batchOps := make([]memctrl.BatchWrite, 0, batchSize)
	lines := make([]ecc.Line, batchSize)
	scalarOuts := make([]memctrl.WriteOutcome, 0, batchSize)
	addrs := make(map[uint64]bool)

	flush := func() {
		t.Helper()
		memctrl.WriteBatch(batch, batchOps)
		for i := range batchOps {
			so, bo := scalarOuts[i], batchOps[i].Out
			if so.Deduplicated != bo.Deduplicated || so.PhysAddr != bo.PhysAddr {
				t.Fatalf("%s: op at logical %d diverged: scalar (dedup=%v phys=%d) batch (dedup=%v phys=%d)",
					name, batchOps[i].Logical, so.Deduplicated, so.PhysAddr, bo.Deduplicated, bo.PhysAddr)
			}
		}
		batchOps = batchOps[:0]
		scalarOuts = scalarOuts[:0]
	}

	for i := 0; i < ops; i++ {
		logical := rng.Uint64n(addrSpace)
		addrs[logical] = true
		var l ecc.Line
		if rng.Bool(0.5) {
			// Dup-heavy pool: forces EFIT hits, compare reads, and — with
			// a pool this small — intra-batch duplicates of lines whose
			// stores are still pending (the mid-batch flush path).
			l.SetWord(0, rng.Uint64n(8))
		} else {
			l.SetWord(0, rng.Uint64())
			l.SetWord(1, rng.Uint64())
		}
		at += 10 * sim.Nanosecond

		k := len(batchOps)
		lines[k] = l
		scalarOuts = append(scalarOuts, scalar.Write(logical, &l, at))
		batchOps = append(batchOps, memctrl.BatchWrite{Logical: logical, Data: &lines[k], At: at})
		if len(batchOps) == batchSize {
			flush()
		}
	}
	flush()

	if s, b := scalar.Stats(), batch.Stats(); s != b {
		t.Fatalf("%s: stats diverged:\nscalar %+v\nbatch  %+v", name, s, b)
	}
	if s, b := envS.Crypto.Encryptions, envB.Crypto.Encryptions; s != b {
		t.Fatalf("%s: encryptions diverged: %d vs %d", name, s, b)
	}
	match := true
	envS.Crypto.RangeCounters(func(addr, c uint64) bool {
		if envB.Crypto.Counter(addr) != c {
			match = false
		}
		return match
	})
	if !match || envS.Crypto.CounterEntries() != envB.Crypto.CounterEntries() {
		t.Fatalf("%s: counter state diverged", name)
	}
	if ms, mb := schemeMeta(scalar), schemeMeta(batch); ms != mb {
		t.Fatalf("%s: metadata caches diverged:\nscalar %+v\nbatch  %+v", name, ms, mb)
	}
	if envS.Energy != envB.Energy {
		t.Fatalf("%s: scheme energy diverged:\nscalar %+v\nbatch  %+v", name, envS.Energy, envB.Energy)
	}
	// Row hits, queueing and stalls are timing; deferred stores reorder
	// the device's read and write energy charges, so that float sum is
	// compared to a tolerance.
	ds, db := envS.Device.MediaStats(), envB.Device.MediaStats()
	envS.Device.SyncHealth()
	envB.Device.SyncHealth()
	ws, wb := envS.Device.Wear(), envB.Device.Wear()
	if hs, hb := envS.Hybrid(), envB.Hybrid(); hs != nil {
		// The counts a batch's store order may move are left out: its
		// write-backs are PCM writes, so the device's write count is
		// compared without them, and its energy and wear, which they and
		// the tier's DRAM fills move, are not compared.
		s, b := hs.Snapshot(), hb.Snapshot()
		ds.Writes -= s.Writebacks
		db.Writes -= b.Writebacks
		ds.MediaEnergy, db.MediaEnergy = 0, 0
		ws, wb = nvm.WearSummary{}, nvm.WearSummary{}
		for _, h := range []*media.HybridStats{&s, &b} {
			h.Promotions, h.Demotions, h.Writebacks, h.ResidentLines, h.DirtyLines = 0, 0, 0, 0, 0
		}
		if s != b {
			t.Fatalf("%s: hybrid tier diverged:\nscalar %+v\nbatch  %+v", name, s, b)
		}
	}
	if ds.Reads != db.Reads || ds.Writes != db.Writes || math.Abs(ds.MediaEnergy-db.MediaEnergy) > 1e-9*ds.MediaEnergy {
		t.Fatalf("%s: device traffic diverged:\nscalar %+v\nbatch  %+v", name, ds, db)
	}
	if ws != wb {
		t.Fatalf("%s: wear diverged:\nscalar %+v\nbatch  %+v", name, ws, wb)
	}
	late := at + sim.Millisecond
	for logical := range addrs {
		rs, rb := scalar.Read(logical, late), batch.Read(logical, late)
		if rs.Hit != rb.Hit || rs.Data != rb.Data {
			t.Fatalf("%s: read-back of %d diverged (hit %v/%v)", name, logical, rs.Hit, rb.Hit)
		}
	}
}

func TestWriteBatchMatchesScalar(t *testing.T) {
	for _, name := range []string{
		experiments.SchemeESD,
		experiments.SchemeBaseline,
		experiments.SchemeSHA1,
		// DeWrite and BCD have no batch kernel: memctrl.WriteBatch loops
		// their Write.
		experiments.SchemeDeWrite,
		experiments.SchemeBCD,
	} {
		for _, size := range []int{1, 5, 8, 32} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, size), func(t *testing.T) {
				testScheme(t, name, size)
			})
		}
	}
	for _, size := range []int{5, 8, 32} {
		t.Run(fmt.Sprintf("%s/batch=%d", experiments.SchemeESDCaram, size), func(t *testing.T) {
			testScheme(t, experiments.SchemeESDCaram, size)
		})
	}
}
