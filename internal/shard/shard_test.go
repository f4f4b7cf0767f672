package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/trace"
)

func testConfig() config.Config {
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 28 // 256 MB keeps per-test setup fast
	return cfg
}

func lineWith(words ...uint64) ecc.Line {
	var l ecc.Line
	for i, w := range words {
		l.SetWord(i, w)
	}
	return l
}

// disjointStream builds an interleaved stream over `shards` address
// regions where region r owns every address with addr % shards == r and
// all content embeds r, so regions are disjoint in both address and
// content. Within each region a small content pool produces duplicates.
func disjointStream(shards, n int) []trace.Record {
	recs := make([]trace.Record, 0, n)
	var t sim.Time
	for i := 0; i < n; i++ {
		region := uint64(i % shards)
		addr := region + uint64(shards)*uint64(i%97)    // 97 addresses per region
		content := lineWith(region, uint64(i%13), 1234) // 13 contents per region
		t += 10 * sim.Nanosecond
		recs = append(recs, trace.Record{Op: trace.OpWrite, Addr: addr, At: t, Data: content})
	}
	return recs
}

// TestShardedMatchesSingleShard is the determinism contract: on streams
// whose address regions are content-disjoint, an N-shard replay must
// reproduce the exact aggregate dedup-rate and write-reduction counters
// of the 1-shard replay — sharding partitions the work without changing
// what any region's scheme observes.
func TestShardedMatchesSingleShard(t *testing.T) {
	for _, scheme := range []string{"esd", "dedup-sha1", "dewrite"} {
		t.Run(scheme, func(t *testing.T) {
			recs := disjointStream(4, 8000)
			run := func(shards int) Summary {
				e, err := New(testConfig(), scheme, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				res, err := e.Replay(trace.NewSliceStream(recs))
				if err != nil {
					t.Fatal(err)
				}
				return res.Summary
			}
			single, sharded := run(1), run(4)
			if single.Scheme.Writes != sharded.Scheme.Writes ||
				single.Scheme.DedupWrites != sharded.Scheme.DedupWrites ||
				single.Scheme.UniqueWrites != sharded.Scheme.UniqueWrites {
				t.Fatalf("aggregate dedup stats diverged:\n single:  W=%d dedup=%d unique=%d\n sharded: W=%d dedup=%d unique=%d",
					single.Scheme.Writes, single.Scheme.DedupWrites, single.Scheme.UniqueWrites,
					sharded.Scheme.Writes, sharded.Scheme.DedupWrites, sharded.Scheme.UniqueWrites)
			}
			if single.Scheme.DedupRate() != sharded.Scheme.DedupRate() {
				t.Fatalf("dedup rate diverged: %v vs %v", single.Scheme.DedupRate(), sharded.Scheme.DedupRate())
			}
			if single.Scheme.DedupWrites == 0 {
				t.Fatal("stream produced no duplicates; test is vacuous")
			}
		})
	}
}

// TestConcurrentEngineRace drives the sharded engine from 8 goroutines
// under the race detector (CI runs go test -race): the regression guard
// for the documented contract that a single-shard System is NOT
// goroutine-safe and concurrent callers must go through the Engine.
func TestConcurrentEngineRace(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 500; i++ {
				addr := uint64(g*1000 + i%50)
				switch i % 3 {
				case 0:
					if _, err := e.Write(addr, lineWith(uint64(g), uint64(i%7))); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := e.Read(addr); err != nil {
						t.Error(err)
						return
					}
				default:
					_, err := e.TryWrite(ctx, addr, lineWith(uint64(g), uint64(i%7)))
					if err != nil && !errors.Is(err, ErrOverloaded) {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scheme.Writes == 0 || sum.Scheme.Reads == 0 {
		t.Fatalf("no traffic recorded: %+v", sum.Scheme)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Write(1, ecc.Line{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close: got %v, want ErrClosed", err)
	}
}

// stall blocks shard 0's worker by handing it a request whose done
// channel is unbuffered and unread; calling the returned release function
// (idempotent, also registered as a cleanup so failures can't deadlock
// Close) lets the worker proceed. It returns only once the worker has
// dequeued the request, so the queue is verifiably empty afterwards.
func stall(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	blocked := make(chan response) // unbuffered: worker blocks delivering
	if err := e.submit(0, request{kind: kRead, done: blocked}, true); err != nil {
		t.Fatal(err)
	}
	for len(e.shards[0].reqs) != 0 {
		runtime.Gosched()
	}
	var once sync.Once
	release = func() { once.Do(func() { <-blocked }) }
	t.Cleanup(release)
	return release
}

func TestTryWriteShedsWhenQueueFull(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 1, QueueDepth: 2, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() }) // runs after stall's release
	release := stall(t, e)
	// Fill the queue with fire-and-forget writes; the worker is stalled so
	// nothing drains.
	for i := 0; i < 2; i++ {
		if err := e.submit(0, request{kind: kWrite, addr: uint64(i)}, false); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := e.TryWrite(context.Background(), 9, ecc.Line{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("TryWrite on full queue: got %v, want ErrOverloaded", err)
	}
	if e.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", e.Shed())
	}
	release() // let the worker drain
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shed != 1 {
		t.Fatalf("Summary.Shed = %d, want 1", sum.Shed)
	}
}

func TestRouterBijection(t *testing.T) {
	e, err := New(testConfig(), "baseline", Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seen := make(map[[2]uint64]uint64)
	for addr := uint64(0); addr < 4096; addr++ {
		key := [2]uint64{uint64(e.ShardOf(addr)), e.localAddr(addr)}
		if prev, dup := seen[key]; dup {
			t.Fatalf("addresses %d and %d collide on shard %d local %d", prev, addr, key[0], key[1])
		}
		seen[key] = addr
	}
}

func TestPerShardMetricsLabels(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for addr := uint64(0); addr < 10; addr++ {
		if _, err := e.Write(addr, lineWith(addr%3)); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := e.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`esd_writes_total{shard="0"}`,
		`esd_writes_total{shard="1"}`,
		`esd_cache_hits_total{cache="efit",shard="0"}`,
		`esd_write_latency_ns_bucket{shard="1",le="`,
		`esd_write_latency_ns_count{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	// The format requires all series of a family to be contiguous even
	// though two sinks registered them interleaved.
	if i0, i1 := strings.Index(out, `esd_writes_total{shard="0"}`), strings.Index(out, `esd_writes_total{shard="1"}`); i1-i0 > 40 {
		t.Errorf("family series not contiguous: offsets %d and %d", i0, i1)
	}
}

func TestSummaryBarrierSeesAllPriorWrites(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := e.Write(uint64(i), lineWith(uint64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scheme.Writes != n {
		t.Fatalf("Summary sees %d writes, want %d", sum.Scheme.Writes, n)
	}
	if sum.Scheme.DedupWrites+sum.Scheme.UniqueWrites != n {
		t.Fatalf("dedup+unique = %d, want %d", sum.Scheme.DedupWrites+sum.Scheme.UniqueWrites, n)
	}
}

// TestSummaryWearFromHealth: Summary takes its wear figures from each
// device's incremental health state instead of walking every line. With
// one line past the 16-bit wear slot's escape they must equal what the
// exact per-shard walks give, and the bytes a Summary allocates must not
// grow with the number of lines the shards have written.
func TestSummaryWearFromHealth(t *testing.T) {
	e, err := New(testConfig(), "baseline", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	summaryBytes := func() uint64 {
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := e.Summary(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const hot = 1 << 16 // past the 65 534 writes a wear slot holds
	for i := 0; i < hot; i++ {
		if err := e.WriteAsync(0, lineWith(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	few := summaryBytes()
	const lines = 1 << 15
	for a := uint64(1); a <= lines; a++ {
		if err := e.WriteAsync(a, lineWith(a)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	many := summaryBytes()

	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	var maxWear, writes, touched uint64
	for _, w := range e.WearSummaries() {
		maxWear = max(maxWear, w.MaxWear)
		writes += w.TotalWrites
		touched += uint64(w.LinesTouched)
	}
	if maxWear != hot || sum.MaxWear != maxWear {
		t.Fatalf("Summary MaxWear = %d, exact walks %d, want %d", sum.MaxWear, maxWear, hot)
	}
	if mean := float64(writes) / float64(touched); sum.MeanWear != mean {
		t.Fatalf("Summary MeanWear = %g, exact walks %g", sum.MeanWear, mean)
	}
	if many > few+1024 {
		t.Fatalf("Summary allocates %d bytes with %d more lines written, %d before: it grows with the touched lines",
			many, lines, few)
	}
}

// TestBarrierRunsAfterQueuedRequests: Barrier calls fn once per shard,
// with that shard's scheme, after every request queued before the call.
func TestBarrierRunsAfterQueuedRequests(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := e.WriteAsync(uint64(i), lineWith(uint64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	writes := make([]uint64, e.NumShards())
	calls := make([]int, e.NumShards())
	err = e.Barrier(func(id int, sch memctrl.Scheme, env *memctrl.Env) {
		calls[id]++
		writes[id] = sch.Stats().Writes
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range calls {
		if calls[id] != 1 || writes[id] != n/3 {
			t.Fatalf("shard %d: %d calls saw %d writes, want 1 call after %d", id, calls[id], writes[id], n/3)
		}
	}
	e.Close()
	if err := e.Barrier(func(int, memctrl.Scheme, *memctrl.Env) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Barrier after Close: %v, want ErrClosed", err)
	}
}
