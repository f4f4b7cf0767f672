package esd

import (
	"context"
	"testing"

	"github.com/esdsim/esd/internal/crypto"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/shard"
)

// Steady-state allocation gates. The write path is the simulator's inner
// loop — every figure campaign and throughput benchmark lives on it — so
// the hot-path kernels (table-driven ECC, in-place counter-mode crypto,
// ring-buffered bank queues, scratch line buffers) are required to keep it
// allocation-free once the working set is warm. These tests fail the build
// the moment a change reintroduces a per-write or per-read heap allocation.

// allocSystem builds a System, warms a bounded working set until the
// scheme's maps and caches reach steady state, and returns closures that
// advance through it one request at a time.
func allocSystem(t *testing.T, scheme string, opts ...SystemOption) (write, read func()) {
	t.Helper()
	sys, err := NewSystem(DefaultConfig(), scheme, opts...)
	if err != nil {
		t.Fatal(err)
	}
	const addrs = 512
	var lines [8]Line
	for i := range lines {
		for j := range lines[i] {
			lines[i][j] = byte(i*31 + j + 1)
		}
	}
	n := 0
	write = func() {
		sys.Write(uint64(n%addrs), lines[n%len(lines)])
		n++
	}
	m := 0
	read = func() {
		sys.Read(uint64(m % addrs))
		m++
	}
	// Warm-up: touch every address several times so the AMT, counter store
	// and device maps stop growing before the measurement window.
	for i := 0; i < addrs*8; i++ {
		write()
	}
	for i := 0; i < addrs; i++ {
		read()
	}
	return write, read
}

func TestSteadyStateWriteAllocs(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			write, _ := allocSystem(t, scheme)
			if avg := testing.AllocsPerRun(2000, write); avg != 0 {
				t.Errorf("%s steady-state write: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

func TestSteadyStateReadAllocs(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			_, read := allocSystem(t, scheme)
			if avg := testing.AllocsPerRun(2000, read); avg != 0 {
				t.Errorf("%s steady-state read: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

// TestSteadyStateBatchWriteAllocs pins the batched write path: once warm,
// System.WriteBatch must stay off the heap for every scheme — both the
// schemes with native batch kernels (esd, sha1, baseline) and the ones
// the memctrl fallback drives through their scalar path (dewrite). The
// per-call scratch is reused inside System, so a steady stream of 16-op
// batches is required to allocate nothing at all.
func TestSteadyStateBatchWriteAllocs(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			sys, err := NewSystem(DefaultConfig(), scheme)
			if err != nil {
				t.Fatal(err)
			}
			const addrs = 512
			ops := make([]WriteBatchOp, 16)
			n := 0
			batchWrite := func() {
				for j := range ops {
					ops[j].Addr = uint64(n % addrs)
					ops[j].Line.SetWord(0, uint64(n%8)*0x9E3779B9+1)
					n++
				}
				sys.WriteBatch(ops)
			}
			// Warm-up: cycle the working set until the AMT, counter store
			// and batch scratch stop growing.
			for i := 0; i < addrs; i++ {
				batchWrite()
			}
			if avg := testing.AllocsPerRun(500, batchWrite); avg != 0 {
				t.Errorf("%s steady-state batched write: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSteadyStateShardReadBatchAllocs pins the engine's batched read path:
// the plan, the per-shard sub-batches and the response channels all come
// from pools, so once warm a steady stream of 64-op ReadBatch calls over
// four shards must allocate nothing.
func TestSteadyStateShardReadBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random; this gate runs without -race")
	}
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			sys, err := NewShardedSystem(DefaultConfig(), scheme, WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			const addrs = 512
			for a := uint64(0); a < addrs; a++ {
				if _, err := sys.Write(a, Line{byte(a), byte(a >> 8), 1}); err != nil {
					t.Fatal(err)
				}
			}
			ops := make([]shard.ReadBatchOp, 64)
			n := 0
			batchRead := func() {
				for j := range ops {
					ops[j].Addr = uint64(n % addrs)
					n++
				}
				if err := sys.eng.ReadBatch(ops); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < addrs; i++ {
				batchRead()
			}
			if avg := testing.AllocsPerRun(500, batchRead); avg != 0 {
				t.Errorf("%s steady-state engine ReadBatch: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

// TestSteadyStateShardScalarAllocs pins the engine's scalar calls as a
// node makes them, with metrics and stage tracing on: a call that finds
// its shard idle runs inline through the shard's scratch request, so once
// warm a steady stream of Write, Read and the traced Try variants the
// server calls must allocate nothing.
func TestSteadyStateShardScalarAllocs(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			sys, err := NewShardedSystem(DefaultConfig(), scheme, WithShards(4), WithShardMetrics(), WithStageTracing())
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			eng := sys.eng
			ctx := context.Background()
			const addrs = 512
			var lines [8]Line
			for i := range lines {
				lines[i][0], lines[i][1] = byte(i), 1
			}
			n := 0
			check := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
			calls := []struct {
				name string
				call func()
			}{
				{"Write", func() {
					_, err := eng.Write(uint64(n%addrs), lines[n%len(lines)])
					check(err)
				}},
				{"Read", func() {
					_, err := eng.Read(uint64(n % addrs))
					check(err)
				}},
				{"TryWriteTraced", func() {
					_, err := eng.TryWriteTraced(ctx, uint64(n%addrs), lines[n%len(lines)], eng.NewTrace())
					check(err)
				}},
				{"TryReadTraced", func() {
					_, err := eng.TryReadTraced(ctx, uint64(n%addrs), eng.NewTrace())
					check(err)
				}},
			}
			for _, c := range calls {
				for i := 0; i < addrs*4; i++ {
					c.call()
				}
			}
			for _, c := range calls {
				if avg := testing.AllocsPerRun(2000, c.call); avg != 0 {
					t.Errorf("%s steady-state engine %s: %v allocs/op, want 0", scheme, c.name, avg)
				}
			}
		})
	}
}

// TestSteadyStateWriteAllocsWithMetrics re-runs the write gate with the
// full telemetry sink attached: the metric counters, the dedup
// effectiveness gauges and the always-on device-health accounting must
// all stay off the heap on the hot path. (Health accounting itself has no
// off switch, so the plain gates above already cover it; this variant
// proves the observable stack adds no allocation either.)
func TestSteadyStateWriteAllocsWithMetrics(t *testing.T) {
	for _, scheme := range []string{SchemeBaseline, SchemeSHA1, SchemeDeWrite, SchemeESD} {
		t.Run(scheme, func(t *testing.T) {
			write, _ := allocSystem(t, scheme, WithMetrics())
			if avg := testing.AllocsPerRun(2000, write); avg != 0 {
				t.Errorf("%s steady-state write with metrics: %v allocs/op, want 0", scheme, avg)
			}
		})
	}
}

// TestHealthSummaryAllocs pins the scrape-side path the telemetry gauges
// use: Device.HealthSummary must not allocate.
func TestHealthSummaryAllocs(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(), SchemeESD)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		sys.Write(uint64(i), Line{byte(i)})
	}
	if avg := testing.AllocsPerRun(1000, func() { _ = sys.env.Device.HealthSummary() }); avg != 0 {
		t.Errorf("HealthSummary: %v allocs/op, want 0", avg)
	}
}

// TestKernelAllocs pins the two per-line kernels themselves: ECC
// fingerprinting and in-place counter-mode encrypt/decrypt must never
// allocate, independent of any scheme plumbing around them.
func TestKernelAllocs(t *testing.T) {
	var line ecc.Line
	for i := range line {
		line[i] = byte(i * 7)
	}
	var sink ecc.Fingerprint
	if avg := testing.AllocsPerRun(1000, func() { sink = ecc.EncodeLine(&line) }); avg != 0 {
		t.Errorf("ecc.EncodeLine: %v allocs/op, want 0", avg)
	}
	_ = sink

	eng := crypto.NewEngineFromSeed(42)
	eng.EncryptInPlace(7, &line) // warm the counter map
	if avg := testing.AllocsPerRun(1000, func() {
		eng.EncryptInPlace(7, &line)
		eng.DecryptInPlace(7, &line)
	}); avg != 0 {
		t.Errorf("crypto in-place encrypt/decrypt: %v allocs/op, want 0", avg)
	}
}
