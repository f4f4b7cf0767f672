package esd

import (
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/xrand"
)

// hybridConfig shrinks the DRAM tier far below the test working sets so
// promotion, LRU demotion and dirty writeback all engage.
func hybridConfig() Config {
	cfg := smallConfig()
	cfg.Media.DRAM.CapacityBytes = 64 << 10 // 1024 lines before sharding
	cfg.Media.PromoteThreshold = 2
	return cfg
}

// TestHybridSystemEndToEnd drives the esd+caram scheme through the public
// System API: the tier must actually migrate lines, stats must surface
// through HybridStats, and every write must read back — including across
// a crash.
func TestHybridSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(hybridConfig(), SchemeESDCaram)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SchemeName() != SchemeESDCaram {
		t.Fatalf("scheme name = %q", sys.SchemeName())
	}
	r := xrand.New(1)
	oracle := map[uint64]Line{}
	var pool [8]Line
	for i := range pool {
		pool[i].SetWord(0, r.Uint64())
	}
	for i := 0; i < 4000; i++ {
		addr := r.Uint64n(2048)
		line := pool[r.Intn(len(pool))]
		if r.Bool(0.5) {
			// Unique content: dedup misses write the media, which is what
			// exercises the WAL-then-DRAM protocol on hot lines.
			line.SetWord(1, r.Uint64())
		}
		sys.Write(addr, line)
		oracle[addr] = line
		if r.Bool(0.3) {
			sys.Read(r.Uint64n(2048))
		}
	}
	st, ok := sys.HybridStats()
	if !ok {
		t.Fatal("HybridStats reports no hybrid tier under esd+caram")
	}
	if st.Promotions == 0 || st.WALAppends == 0 || st.AbsorbedWrites == 0 {
		t.Fatalf("hybrid tier never engaged: %+v", st)
	}
	verify := func(stage string) {
		for addr, want := range oracle {
			if got, ro := sys.Read(addr); !ro.Hit || got != want {
				t.Fatalf("%s: line %d lost or corrupted", stage, addr)
			}
		}
	}
	verify("pre-crash")
	sys.Crash()
	verify("post-crash")

	// A plain-PCM scheme must report no tier.
	plain, err := NewSystem(smallConfig(), SchemeESD)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.HybridStats(); ok {
		t.Fatal("plain ESD reports a hybrid tier")
	}
}

// TestHybridShardedRace hammers concurrent promotion/demotion against
// reads and writes on the same hot lines, with scrape goroutines pulling
// HybridStats and DeviceHealth the whole time — the -race probe for the
// hybrid tier's telemetry surface.
func TestHybridShardedRace(t *testing.T) {
	cfg := hybridConfig()
	cfg.Media.DRAM.CapacityBytes = 16 << 10 // 64 lines per shard after the 4-way split
	sys, err := NewShardedSystem(cfg, SchemeESDCaram, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	const workers, opsPerWorker = 4, 800
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := sys.HybridStats(); !ok {
				t.Error("hybrid tier vanished mid-run")
				return
			}
			sys.DeviceHealth()
			sys.LiveStats()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xrand.New(100 + uint64(w))
			var line Line
			for i := 0; i < opsPerWorker; i++ {
				// A tight hot set shared by all workers: every address
				// crosses the promotion threshold fast and the 256-line
				// per-shard buffer keeps demoting.
				addr := r.Uint64n(4096)
				if r.Bool(0.6) {
					line.SetWord(0, r.Uint64())
					if _, err := sys.Write(addr, line); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				} else {
					if _, err := sys.Read(addr); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	st, ok := sys.HybridStats()
	if !ok {
		t.Fatal("no hybrid stats after run")
	}
	if st.Promotions == 0 || st.Demotions == 0 {
		t.Fatalf("race hammer produced no migration churn: %+v", st)
	}
}
