package esd

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§IV) as testing.B benchmarks: `go test -bench=Fig` runs the
// whole campaign. Each benchmark reports its figure's headline numbers as
// custom metrics (speedups, reductions, shares), so the paper-vs-measured
// comparison in EXPERIMENTS.md can be regenerated from this output.
//
// Benchmark iterations re-run complete simulation campaigns; expect >1 s
// per iteration. Use -benchtime=1x for a single regeneration.

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/experiments"
	"github.com/esdsim/esd/internal/fingerprint"
	"github.com/esdsim/esd/internal/workload"
)

// benchOpts sizes the per-figure campaigns so the full `-bench=.` sweep
// completes in minutes while the statistics stay stable.
func benchOpts() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Requests = 20000
	opts.Warmup = 15000
	return opts
}

func reportAverage(b *testing.B, rows []experiments.AppRow, metric string) {
	b.Helper()
	sums := map[string]float64{}
	for _, r := range rows {
		for scheme, v := range r.Values {
			sums[scheme] += v
		}
	}
	n := float64(len(rows))
	if n == 0 {
		return
	}
	for _, scheme := range experiments.DedupSchemes() {
		b.ReportMetric(sums[scheme]/n, scheme+"-"+metric)
	}
}

// BenchmarkFig01DuplicateRate regenerates Fig. 1 (duplicate rate of evicted
// cache lines per application; paper: mean 62.9%).
func BenchmarkFig01DuplicateRate(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig1(opts)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.DupRate
		}
		b.ReportMetric(sum/float64(len(rows))*100, "mean-dup-%")
	}
}

// BenchmarkFig02WorstCase regenerates Fig. 2 (normalized performance of the
// dedup schemes in the worst case, leela and lbm).
func BenchmarkFig02WorstCase(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig2(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "lbm/write" {
				b.ReportMetric(r.Values[experiments.SchemeSHA1], "lbm-sha1-write-perf")
				b.ReportMetric(r.Values[experiments.SchemeESD], "lbm-esd-write-perf")
			}
		}
	}
}

// BenchmarkFig03ContentLocality regenerates Fig. 3 (reference-count
// distribution; paper: tiny hot fraction holds ~42.7% of write volume).
func BenchmarkFig03ContentLocality(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig3(opts)
		if err != nil {
			b.Fatal(err)
		}
		hotU, hotW := 0.0, 0.0
		for _, r := range rows {
			hotU += r.UniqueShares[workload.Num1000Plus]
			hotW += r.WriteShares[workload.Num1000Plus]
		}
		n := float64(len(rows))
		b.ReportMetric(hotU/n*100, "hot-unique-%")
		b.ReportMetric(hotW/n*100, "hot-volume-%")
	}
}

// BenchmarkFig05LookupBottleneck regenerates Fig. 5 (duplicates filtered by
// cached vs NVMM fingerprints under full dedup, and the lookup latency
// share; paper: 51.0% / 13.7% / 49.2%).
func BenchmarkFig05LookupBottleneck(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig5(opts)
		if err != nil {
			b.Fatal(err)
		}
		var cacheShare, nvmmShare, lookupShare float64
		for _, r := range rows {
			cacheShare += r.DupByCacheShare
			nvmmShare += r.DupByNVMMShare
			lookupShare += r.LookupLatencyShare
		}
		n := float64(len(rows))
		b.ReportMetric(cacheShare/n*100, "dup-by-cache-%")
		b.ReportMetric(nvmmShare/n*100, "dup-by-nvmm-%")
		b.ReportMetric(lookupShare/n*100, "lookup-latency-%")
	}
}

// BenchmarkFig08Collisions regenerates Fig. 8 (fingerprint collision
// probability, normalized to CRC).
func BenchmarkFig08Collisions(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig8(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Kind == fingerprint.KindECC {
				b.ReportMetric(r.Normalized, "ecc-vs-crc16")
			}
			if r.Kind == fingerprint.KindCRC32 {
				b.ReportMetric(r.Normalized, "crc32-vs-crc16")
			}
		}
	}
}

// BenchmarkFig11WriteReduction regenerates Fig. 11 (write reduction vs
// Baseline; paper: ESD 47.8% average).
func BenchmarkFig11WriteReduction(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig11(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportAverage(b, rows, "write-reduction-%")
	}
}

// BenchmarkFig12WriteSpeedup regenerates Fig. 12 (write speedup vs
// Baseline; paper: ESD up to 3.4x).
func BenchmarkFig12WriteSpeedup(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig12(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportAverage(b, rows, "write-speedup")
	}
}

// BenchmarkFig13ReadSpeedup regenerates Fig. 13 (read speedup vs Baseline;
// paper: ESD up to 5.3x).
func BenchmarkFig13ReadSpeedup(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig13(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportAverage(b, rows, "read-speedup")
	}
}

// BenchmarkFig14IPC regenerates Fig. 14 (IPC normalized to Baseline; paper:
// ESD up to 2.4x).
func BenchmarkFig14IPC(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig14(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportAverage(b, rows, "ipc-norm")
	}
}

// BenchmarkFig15TailLatency regenerates Fig. 15 (write latency CDF for the
// eight selected applications).
func BenchmarkFig15TailLatency(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig15(opts)
		if err != nil {
			b.Fatal(err)
		}
		var esdP99, shaP99 float64
		var n float64
		for _, r := range rows {
			switch r.Scheme {
			case experiments.SchemeESD:
				esdP99 += r.P99.Nanoseconds()
				n++
			case experiments.SchemeSHA1:
				shaP99 += r.P99.Nanoseconds()
			}
		}
		b.ReportMetric(esdP99/n, "esd-p99-ns")
		b.ReportMetric(shaP99/n, "sha1-p99-ns")
	}
}

// BenchmarkFig16Energy regenerates Fig. 16 (energy normalized to Baseline;
// lower is better).
func BenchmarkFig16Energy(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig16(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportAverage(b, rows, "energy-norm")
	}
}

// BenchmarkFig17WriteProfile regenerates Fig. 17 (write latency profile;
// paper: SHA-1 ~80% fingerprint computation, ESD dominated by media).
func BenchmarkFig17WriteProfile(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig17(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Scheme {
			case experiments.SchemeSHA1:
				b.ReportMetric(r.FPCompute*100, "sha1-fpcompute-%")
			case experiments.SchemeESD:
				b.ReportMetric(r.WriteUnique*100, "esd-write-%")
			}
		}
	}
}

// BenchmarkFig18CacheSweep regenerates Fig. 18 (EFIT/AMT hit rate vs cache
// size, with and without LRCU). The sweep runs 12 simulations per
// application, so it uses a reduced application set.
func BenchmarkFig18CacheSweep(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	opts.Apps = []string{"lbm", "mcf", "x264", "gcc"}
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig18(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.SizeBytes == 512<<10 {
				b.ReportMetric(r.EFITHitLRCU, "efit-hit@512KB")
				b.ReportMetric(r.AMTHit, "amt-hit@512KB")
			}
		}
	}
}

// BenchmarkFig19Metadata regenerates Fig. 19 (NVMM metadata overhead
// normalized to Dedup_SHA1; paper: ESD -81.2%, DeWrite -60.9%).
func BenchmarkFig19Metadata(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig19(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Normalized, r.Scheme+"-metadata-norm")
		}
	}
}

// BenchmarkTableIConfig exercises construction at the paper's full Table I
// scale (16 GB device), validating that capacity-level structures stay
// sparse.
func BenchmarkTableIConfig(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(DefaultConfig(), SchemeESD)
		if err != nil {
			b.Fatal(err)
		}
		var line Line
		line[0] = byte(i)
		sys.Write(uint64(i%1024), line)
	}
}

// BenchmarkSystemWriteESD measures raw simulator throughput on the ESD
// write path (requests simulated per second).
func BenchmarkSystemWriteESD(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig()
	cfg.PCM.CapacityBytes = 1 << 30
	sys, err := NewSystem(cfg, SchemeESD)
	if err != nil {
		b.Fatal(err)
	}
	var line Line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line.SetWord(0, uint64(i)%512)
		sys.Write(uint64(i)%65536, line)
	}
}

// BenchmarkSystemWriteSHA1 is the same workload under Dedup_SHA1, showing
// the simulation-throughput cost of cryptographic fingerprinting.
func BenchmarkSystemWriteSHA1(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig()
	cfg.PCM.CapacityBytes = 1 << 30
	sys, err := NewSystem(cfg, SchemeSHA1)
	if err != nil {
		b.Fatal(err)
	}
	var line Line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line.SetWord(0, uint64(i)%512)
		sys.Write(uint64(i)%65536, line)
	}
}

// BenchmarkAblationCapacity regenerates the effective-capacity ablation
// (BCD base+delta vs exact dedup on a near-duplicate workload).
func BenchmarkAblationCapacity(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationCapacity(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.EffectiveCapacity, r.Scheme+"-capacity")
		}
	}
}

// BenchmarkAblationRecovery regenerates the crash-recovery transient study.
func BenchmarkAblationRecovery(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	opts.Apps = []string{"x264", "dedup"}
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationRecovery(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == experiments.SchemeESD {
				b.ReportMetric(r.PostCrashNs, "esd-postcrash-ns")
				b.ReportMetric(r.RecoveredNs, "esd-recovered-ns")
			}
		}
	}
}

// BenchmarkStageTracingOverhead prices telemetry on the ESD write path.
// "off" is the telemetry-dark baseline (BenchmarkSystemWriteESD's
// configuration: every hook is a nil-receiver no-op); "metrics" is a live
// sink, counts, histograms and the stage latency set staged in plain owner
// memory; "metrics+flight" adds the always-on flight-recorder ring;
// "trace" renders every 64th request's record into a JSONL trace on
// io.Discard. The off/metrics gap is the regression budget for new hooks.
// The contract: metrics+flight within 1.10x of off (TestTelemetryOverheadGate,
// `make overhead-check`, gates it within one run), and 0 allocs/op in
// every configuration but trace, because telemetry must never put the
// steady state on the heap.
func BenchmarkStageTracingOverhead(b *testing.B) {
	run := func(opts ...SystemOption) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			cfg := DefaultConfig()
			cfg.PCM.CapacityBytes = 1 << 30
			sys, err := NewSystem(cfg, SchemeESD, opts...)
			if err != nil {
				b.Fatal(err)
			}
			var line Line
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				line.SetWord(0, uint64(i)%512)
				sys.Write(uint64(i)%65536, line)
			}
			b.StopTimer()
			if err := sys.CloseTrace(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", run())
	b.Run("metrics", run(WithMetrics()))
	b.Run("metrics+flight", run(WithMetrics(), WithFlightRecorder(256)))
	b.Run("trace", run(WithEventTrace(io.Discard), WithTraceSampling(64)))
}

// BenchmarkSystemWriteBatch measures the batched single-engine write path
// (System.WriteBatch at 64 ops per call) on the same address/content
// stream as BenchmarkSystemWriteESD. ns/op is per line, so the gap to
// BenchmarkSystemWriteESD is the amortization won by the batch kernels
// (one ECC pass, one multi-block AES pad pass, one arrival group).
// The batch path must stay at 0 allocs/op — alloc_test.go pins the same
// contract as a plain test.
func BenchmarkSystemWriteBatch(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig()
	cfg.PCM.CapacityBytes = 1 << 30
	sys, err := NewSystem(cfg, SchemeESD)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	ops := make([]WriteBatchOp, batch)
	fill := func(base int) {
		for j := range ops {
			k := base + j
			ops[j].Addr = uint64(k) % 65536
			ops[j].Line.SetWord(0, uint64(k)%512)
		}
	}
	fill(0)
	sys.WriteBatch(ops) // warm the reusable scratch before the clock starts
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		fill(i)
		sys.WriteBatch(ops)
	}
}

// BenchmarkShardedThroughput measures end-to-end write throughput of the
// sharded engine at 1/2/4/8 shards, with a duplicate-heavy stream (most
// content drawn from a small pool, so the dedup fast path dominates) and
// a unique-heavy one (every line distinct, so full write cost dominates).
// A fixed worker count drives each configuration, so the shard sweep
// isolates engine parallelism from client parallelism; speedups track the
// host's core count (a single-core CI runner shows queueing behavior, not
// parallel scaling). Since the batch-kernel pass, each worker submits
// 256-op batches through ShardedSystem.WriteBatch — one shard handoff and
// one batched AES+ECC pass per sub-batch instead of one per line — which
// is where the headline multiple over the scalar PR6 baseline comes from.
// The client batch is sized so that even at 8 shards the router's per-shard
// sub-batches stay deep enough (~32 ops) to amortize the handoff.
func BenchmarkShardedThroughput(b *testing.B) {
	const workers = 8
	const batch = 256
	run := func(b *testing.B, shards int, dupHeavy bool) {
		b.ReportAllocs()
		cfg := DefaultConfig()
		cfg.PCM.CapacityBytes = 1 << 30
		sys, err := NewShardedSystem(cfg, SchemeESD, WithShards(shards))
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// The op buffer is reused across batches and filled in
				// place — a steady-state batching client keeps one request
				// buffer, it does not rebuild 64-byte lines per op.
				ops := make([]WriteBatchOp, batch)
				n := 0
				flush := func() bool {
					if n == 0 {
						return true
					}
					if err := sys.WriteBatch(ops[:n]); err != nil {
						b.Error(err)
						return false
					}
					for j := 0; j < n; j++ {
						if ops[j].Err != nil {
							b.Error(ops[j].Err)
							return false
						}
					}
					n = 0
					return true
				}
				for i := 0; i < per; i++ {
					op := &ops[n]
					op.Addr = uint64(w*1_000_000 + i%65536)
					if dupHeavy {
						op.Line.SetWord(0, uint64(i)%16)
					} else {
						op.Line.SetWord(0, uint64(w)<<32|uint64(i))
						op.Line.SetWord(1, ^uint64(i))
					}
					n++
					if n == batch && !flush() {
						return
					}
				}
				flush()
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		elapsed := b.Elapsed().Seconds()
		if elapsed > 0 {
			b.ReportMetric(float64(per*workers)/elapsed, "writes/s")
		}
	}
	for _, mix := range []struct {
		name string
		dup  bool
	}{{"dup-heavy", true}, {"unique-heavy", false}} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", mix.name, shards), func(b *testing.B) {
				run(b, shards, mix.dup)
			})
		}
	}
}

// BenchmarkShardedBatchResident times 64-op WriteBatch and ReadBatch calls
// on a 4-shard engine whose working set is far larger than its metadata
// caches and resident in full: a namd stream over 1 Mi lines first writes
// every line of the footprint, so each timed op pays the scheme's host
// cache misses (EFIT and AMT sets, table entries, refcounts, counters,
// stored lines) the way a node serving namd-batch64 does. The other
// batch benchmarks cycle 65 536 addresses that stay cache-resident, and
// the end-to-end ladder's fresh instances never fill the footprint, so
// this is where the scheme's memory-system cost shows. The timed ops cycle
// a pre-drawn ring of namd ops (Zipf addresses, the profile's duplicate
// schedule), keeping line generation off the clock. ns/op is per line.
func BenchmarkShardedBatchResident(b *testing.B) {
	const (
		footprint = 1 << 20
		ringLen   = 1 << 16
		batch     = 64
	)
	p, _ := workload.ByName("namd")
	p.FootprintLines = footprint
	gen := workload.NewGenerator(p, 7, footprint+ringLen)
	cfg := DefaultConfig()
	cfg.PCM.CapacityBytes = 1 << 30
	sys, err := NewShardedSystem(cfg, SchemeESD, WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	check := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	warm := make([]WriteBatchOp, batch)
	for lo := 0; lo < footprint; lo += batch {
		for j := range warm {
			warm[j].Addr = uint64(lo + j)
			warm[j].Line = gen.Content(gen.SampleWriteContent())
		}
		check(sys.WriteBatch(warm))
	}
	writes := make([]WriteBatchOp, ringLen)
	reads := make([]ReadBatchOp, ringLen)
	for i := range writes {
		writes[i].Addr = gen.SampleAddr()
		writes[i].Line = gen.Content(gen.SampleWriteContent())
		reads[i].Addr = gen.SampleAddr()
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i, k := 0, 0; i < b.N; i, k = i+batch, (k+batch)%ringLen {
			check(sys.WriteBatch(writes[k : k+batch]))
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i, k := 0, 0; i < b.N; i, k = i+batch, (k+batch)%ringLen {
			check(sys.ReadBatch(reads[k : k+batch]))
		}
	})
}
