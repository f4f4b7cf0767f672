package check

import "testing"

// FuzzDifferential fuzzes the workload-shape space: whatever mix of
// duplicates, zero bursts, crafted collisions, crashes and skew the fuzzer
// invents, ESD (single, and sharded at both owners) must stay observationally
// equal to the oracle and pass every audit. This is the fuzz-shaped face of
// the differential checker; `esdcheck` runs the big sweeps.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(1), byte(128), byte(110), byte(5), byte(0))
	f.Add(uint64(2), byte(0), byte(0), byte(0), byte(255))
	f.Add(uint64(3), byte(255), byte(255), byte(255), byte(64))
	f.Fuzz(func(t *testing.T, seed uint64, dup, readFrac, collide, zero byte) {
		gen := GenConfig{
			Ops:           300,
			Addrs:         1 << 9,
			ReadFrac:      float64(readFrac) / 255,
			DupRatio:      float64(dup) / 255,
			ZeroBurst:     float64(zero) / 1024,
			ZeroBurstLen:  8,
			HotSkew:       0.9,
			CollisionRate: float64(collide) / 255,
			CrashRate:     0.002,
			PoolSize:      16,
		}
		res, err := Run(Config{
			Gen:        gen,
			Seed:       seed,
			Schemes:    []string{"esd"},
			Shards:     []int{2},
			AuditEvery: 100,
			// Half the write and read runs go through the batched APIs,
			// so the fuzzers reach ESD's multi-op batches and their
			// mid-batch flush.
			BatchFraction: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: %v", seed, v)
		}
	})
}
