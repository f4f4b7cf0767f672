package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/cache"
	"github.com/esdsim/esd/internal/core"
	"github.com/esdsim/esd/internal/dedup"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/xrand"
)

// batchStream builds a mixed dup/unique op stream across a global
// address space.
func batchStream(n int, seed uint64) []WriteBatchOp {
	rng := xrand.New(seed)
	ops := make([]WriteBatchOp, n)
	for i := range ops {
		ops[i].Addr = rng.Uint64n(1024)
		if rng.Bool(0.5) {
			ops[i].Line = lineWith(rng.Uint64n(16), 7)
		} else {
			ops[i].Line = lineWith(rng.Uint64(), rng.Uint64())
		}
	}
	return ops
}

// metaCounters are the metadata-cache counters of an engine's schemes,
// summed over shards: the fingerprint cache's statistics (ESD's EFIT,
// dedup-sha1's fingerprint cache), the AMT cache's, and the AMT's NVMM
// table reads and writes. Summary carries none of them, yet a batch's
// touch stage that probed through a counting lookup would move exactly
// these first.
type metaCounters struct {
	FP, AMT               cache.Stats
	NVMMReads, NVMMWrites uint64
}

func addCacheStats(a *cache.Stats, b cache.Stats) {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Inserts += b.Inserts
	a.Evictions += b.Evictions
}

// engineMeta reads metaCounters from every shard under its owner lock.
func engineMeta(e *Engine) metaCounters {
	var m metaCounters
	for _, s := range e.shards {
		s.own.Lock()
		var amt *memctrl.AMT
		switch sch := s.sch.(type) {
		case *core.ESD:
			addCacheStats(&m.FP, sch.EFITStats())
			amt = sch.AMT
		case *dedup.SHA1:
			addCacheStats(&m.FP, sch.FPCacheStats())
			amt = sch.AMT
		}
		if amt != nil {
			addCacheStats(&m.AMT, amt.CacheStats())
			m.NVMMReads += amt.NVMMReads
			m.NVMMWrites += amt.NVMMWrites
		}
		s.own.Unlock()
	}
	return m
}

// TestWriteBatchMatchesScalarEngine drives the same op stream through a
// scalar-write engine and a WriteBatch engine (same config, scheme and
// shard count) and requires identical dedup decisions, placements,
// aggregate statistics and read-back data, and an identical Summary and
// metadata-cache counters except for what arrival timing moves: a
// sub-batch is one arrival group, so its latencies, its device queueing
// and the clock differ from op-by-op writes by design. Each sub-batch
// lands on its shard in slice order, so per-shard op streams are
// identical to the scalar engine's.
func TestWriteBatchMatchesScalarEngine(t *testing.T) {
	for _, scheme := range []string{"esd", "dedup-sha1", "baseline"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", scheme, shards), func(t *testing.T) {
				es, err := New(testConfig(), scheme, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer es.Close()
				eb, err := New(testConfig(), scheme, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer eb.Close()

				ops := batchStream(3000, 11)
				const batch = 64
				for lo := 0; lo < len(ops); lo += batch {
					hi := min(lo+batch, len(ops))
					chunk := ops[lo:hi]
					if err := eb.WriteBatch(chunk); err != nil {
						t.Fatal(err)
					}
					for i := range chunk {
						if chunk[i].Err != nil {
							t.Fatal(chunk[i].Err)
						}
						out, err := es.Write(chunk[i].Addr, chunk[i].Line)
						if err != nil {
							t.Fatal(err)
						}
						if out.Deduplicated != chunk[i].Out.Deduplicated || out.PhysAddr != chunk[i].Out.PhysAddr {
							t.Fatalf("op %d (addr %d) diverged: scalar dedup=%v phys=%d, batch dedup=%v phys=%d",
								lo+i, chunk[i].Addr, out.Deduplicated, out.PhysAddr,
								chunk[i].Out.Deduplicated, chunk[i].Out.PhysAddr)
						}
					}
				}

				ss, err := es.Summary()
				if err != nil {
					t.Fatal(err)
				}
				sb, err := eb.Summary()
				if err != nil {
					t.Fatal(err)
				}
				if ss.Scheme != sb.Scheme {
					t.Fatalf("scheme stats diverged:\nscalar %+v\nbatch  %+v", ss.Scheme, sb.Scheme)
				}
				// Media energy is compared apart: deferred stores reorder
				// the device's read and write charges, and a float sum of
				// the same terms in another order differs in its last bits.
				untimed := func(s Summary) Summary {
					s.WriteHist, s.ReadHist, s.Now, s.Energy.Media = stats.Histogram{}, stats.Histogram{}, 0, 0
					return s
				}
				if us, ub := untimed(ss), untimed(sb); us != ub {
					t.Fatalf("summary diverged:\nscalar %+v\nbatch  %+v", us, ub)
				}
				if math.Abs(ss.Energy.Media-sb.Energy.Media) > 1e-9*ss.Energy.Media {
					t.Fatalf("media energy diverged: scalar %v, batch %v", ss.Energy.Media, sb.Energy.Media)
				}
				if ms, mb := engineMeta(es), engineMeta(eb); ms != mb {
					t.Fatalf("metadata caches diverged:\nscalar %+v\nbatch  %+v", ms, mb)
				}

				for addr := uint64(0); addr < 1024; addr++ {
					rs, err := es.Read(addr)
					if err != nil {
						t.Fatal(err)
					}
					rb, err := eb.Read(addr)
					if err != nil {
						t.Fatal(err)
					}
					if rs.Hit != rb.Hit || rs.Data != rb.Data {
						t.Fatalf("read-back of %d diverged (hit %v/%v)", addr, rs.Hit, rb.Hit)
					}
				}
			})
		}
	}
}

// TestWriteBatchAfterClose verifies the error contract: every op reports
// ErrClosed and the call returns it.
func TestWriteBatchAfterClose(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	ops := batchStream(8, 3)
	if err := e.WriteBatch(ops); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteBatch after Close: err=%v, want ErrClosed", err)
	}
	for i := range ops {
		if !errors.Is(ops[i].Err, ErrClosed) {
			t.Fatalf("op %d: err=%v, want ErrClosed", i, ops[i].Err)
		}
	}
}

// TestTryWriteBatchSheds fills one shard's queue and verifies that only
// that shard's ops shed with ErrOverloaded while the rest complete.
func TestTryWriteBatchSheds(t *testing.T) {
	e, err := New(testConfig(), "baseline", Options{Shards: 2, QueueDepth: 1, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Wedge shard 0 behind a slow request stream: occupy the worker and
	// fill the depth-1 queue. A write to an even address blocks the
	// worker only momentarily, so instead saturate by submitting async
	// writes until the queue reports full via TryWrite.
	ctx := context.Background()
	sawShed := false
	for try := 0; try < 200 && !sawShed; try++ {
		for i := 0; i < 64; i++ {
			e.WriteAsync(0, lineWith(uint64(i))) //nolint:errcheck
		}
		ops := batchStream(32, uint64(try))
		if err := e.TryWriteBatch(ctx, ops); err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			switch {
			case ops[i].Err == nil:
			case errors.Is(ops[i].Err, ErrOverloaded):
				sawShed = true
			default:
				t.Fatalf("op %d: unexpected error %v", i, ops[i].Err)
			}
		}
	}
	if !sawShed {
		t.Skip("queues never filled; shedding not exercised on this machine")
	}
}

// TestReadBatchMatchesScalarEngine replays one mixed stream through two
// engines: the scalar engine reads op by op, the batch engine reads each
// run through ReadBatch. Every read must agree on data, hit flag and
// simulated latency, and the engines on their whole Summary (histograms,
// energy, device traffic, wear, clock) and metadata-cache counters — the
// batch runs each read through the scalar body after an inert touch
// stage, so the per-shard clock sequences are identical. Writes
// alternate between WriteBatch on both engines and Write on the scalar
// engine against WriteAsync on the batch engine, so a batch read that
// immediately follows an unacknowledged write to its address sees it
// only through per-shard FIFO.
func TestReadBatchMatchesScalarEngine(t *testing.T) {
	for _, scheme := range []string{"esd", "dedup-sha1", "baseline"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", scheme, shards), func(t *testing.T) {
				es, err := New(testConfig(), scheme, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer es.Close()
				eb, err := New(testConfig(), scheme, Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer eb.Close()

				rng := xrand.New(31)
				writes := batchStream(2000, 29)
				reads := make([]ReadBatchOp, 64)
				hits := 0
				for lo, round := 0, 0; lo < len(writes); round++ {
					hi := min(lo+32, len(writes))
					chunk := writes[lo:hi]
					if round%2 == 0 {
						if err := es.WriteBatch(chunk); err != nil {
							t.Fatal(err)
						}
						if err := eb.WriteBatch(chunk); err != nil {
							t.Fatal(err)
						}
					} else {
						for i := range chunk {
							if _, err := es.Write(chunk[i].Addr, chunk[i].Line); err != nil {
								t.Fatal(err)
							}
							if err := eb.WriteAsync(chunk[i].Addr, chunk[i].Line); err != nil {
								t.Fatal(err)
							}
						}
					}
					lo = hi

					// Half the reads target the chunk just written, half
					// anywhere (cold addresses included).
					for i := range reads {
						if i%2 == 0 {
							reads[i] = ReadBatchOp{Addr: chunk[rng.Uint64n(uint64(len(chunk)))].Addr}
						} else {
							reads[i] = ReadBatchOp{Addr: rng.Uint64n(2048)}
						}
					}
					if err := eb.ReadBatch(reads); err != nil {
						t.Fatal(err)
					}
					for i := range reads {
						if reads[i].Err != nil {
							t.Fatal(reads[i].Err)
						}
						want, err := es.Read(reads[i].Addr)
						if err != nil {
							t.Fatal(err)
						}
						if got := reads[i].Res; got != want {
							t.Fatalf("round %d read %d (addr %d) diverged: scalar hit=%v lat=%v, batch hit=%v lat=%v, data equal=%v",
								round, i, reads[i].Addr, want.Hit, want.Lat, got.Hit, got.Lat, got.Data == want.Data)
						}
						if i%2 == 0 {
							if !reads[i].Res.Hit {
								t.Fatalf("round %d: read of just-written addr %d missed", round, reads[i].Addr)
							}
							hits++
						}
					}
				}
				if hits == 0 {
					t.Fatal("no read observed a write")
				}
				ss, err := es.Summary()
				if err != nil {
					t.Fatal(err)
				}
				sb, err := eb.Summary()
				if err != nil {
					t.Fatal(err)
				}
				if ss != sb {
					t.Fatalf("summary diverged:\nscalar %+v\nbatch  %+v", ss, sb)
				}
				if ms, mb := engineMeta(es), engineMeta(eb); ms != mb {
					t.Fatalf("metadata caches diverged:\nscalar %+v\nbatch  %+v", ms, mb)
				}
			})
		}
	}
}

// TestReadBatchAfterClose verifies the error contract of ReadBatch: every
// op reports ErrClosed and the call returns it.
func TestReadBatchAfterClose(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	ops := []ReadBatchOp{{Addr: 0}, {Addr: 1}, {Addr: 2}}
	if err := e.ReadBatch(ops); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadBatch after Close: err=%v, want ErrClosed", err)
	}
	for i := range ops {
		if !errors.Is(ops[i].Err, ErrClosed) {
			t.Fatalf("op %d: err=%v, want ErrClosed", i, ops[i].Err)
		}
	}
}

// gatedScheme parks its shard's worker inside Write until the gate opens,
// so a test can hold a shard busy deterministically.
type gatedScheme struct {
	memctrl.Scheme
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedScheme) Write(logical uint64, data *ecc.Line, at sim.Time) memctrl.WriteOutcome {
	select {
	case g.entered <- struct{}{}:
		<-g.gate
	default: // only the first write parks
	}
	return g.Scheme.Write(logical, data, at)
}

// wedgeShard0 builds a 2-shard engine (queue depth 1) whose shard 0
// worker is parked inside a write. The returned function opens the gate;
// cleanup opens it too, then closes the engine.
func wedgeShard0(t *testing.T) (*Engine, func()) {
	t.Helper()
	e, err := New(testConfig(), "baseline", Options{Shards: 2, QueueDepth: 1, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedScheme{Scheme: e.shards[0].sch, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	// Installed before the first request: the queue send orders it before
	// the worker's reads of s.sch.
	e.shards[0].sch = g
	if err := e.WriteAsync(0, lineWith(1)); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	open := sync.OnceFunc(func() { close(g.gate) })
	t.Cleanup(func() {
		open()
		e.Close()
	})
	return e, open
}

// TestTryReadBatchSheds holds shard 0's worker busy with its queue full:
// the shard-0 sub-batch sheds as a unit with ErrOverloaded, while the
// shard-1 sub-batch of the same call completes.
func TestTryReadBatchSheds(t *testing.T) {
	e, open := wedgeShard0(t)
	if err := e.WriteAsync(2, lineWith(2)); err != nil { // fills the depth-1 queue
		t.Fatal(err)
	}
	if _, err := e.Write(1, lineWith(3)); err != nil {
		t.Fatal(err)
	}
	ops := []ReadBatchOp{{Addr: 0}, {Addr: 1}, {Addr: 4}, {Addr: 3}}
	shed := e.Shed()
	if err := e.TryReadBatchTraced(context.Background(), ops, e.NewTrace()); err != nil {
		t.Fatalf("shedding is per op, not a call error: %v", err)
	}
	for i := range ops {
		switch sh := e.ShardOf(ops[i].Addr); {
		case sh == 0 && !errors.Is(ops[i].Err, ErrOverloaded):
			t.Fatalf("op %d on the full shard: err=%v, want ErrOverloaded", i, ops[i].Err)
		case sh == 1 && ops[i].Err != nil:
			t.Fatalf("op %d on the free shard: %v", i, ops[i].Err)
		}
	}
	if !ops[1].Res.Hit || ops[1].Res.Data != lineWith(3) || ops[3].Res.Hit {
		t.Fatalf("free shard read back wrong results: %+v / %+v", ops[1].Res, ops[3].Res)
	}
	if got := e.Shed() - shed; got != 1 {
		t.Fatalf("shed counter moved by %d, want 1 (one sub-batch)", got)
	}
	open()
}

// TestTryReadBatchAbandoned abandons a read batch whose shard-0 sub-batch
// is still queued behind a parked worker. The caller gets the context
// error for those ops, then keeps scribbling on its own op buffer and
// issuing more batches while the worker executes the abandoned sub-batch:
// under -race this fails if the worker touched caller memory or the
// abandoned buffer went back to the pool.
func TestTryReadBatchAbandoned(t *testing.T) {
	e, open := wedgeShard0(t)
	want := lineWith(7, 7)
	for a := uint64(1); a < 64; a += 2 {
		if _, err := e.Write(a, want); err != nil {
			t.Fatal(err)
		}
	}

	ops := make([]ReadBatchOp, 16)
	for i := range ops {
		ops[i].Addr = uint64(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if err := e.TryReadBatchTraced(ctx, ops, e.NewTrace()); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned batch: err=%v, want context.Canceled", err)
	}
	for i := range ops {
		if e.ShardOf(ops[i].Addr) == 0 && !errors.Is(ops[i].Err, context.Canceled) {
			t.Fatalf("op %d on the parked shard: err=%v, want context.Canceled", i, ops[i].Err)
		}
	}

	open()
	for round := 0; round < 50; round++ {
		for i := range ops {
			ops[i] = ReadBatchOp{Addr: uint64(2*i + 1)}
		}
		if err := e.ReadBatch(ops); err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			if ops[i].Err != nil || !ops[i].Res.Hit || ops[i].Res.Data != want {
				t.Fatalf("round %d op %d (addr %d): err=%v hit=%v", round, i, ops[i].Addr, ops[i].Err, ops[i].Res.Hit)
			}
		}
	}
}
