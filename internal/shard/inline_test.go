package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/xrand"
)

// TestAsyncWriteThenReadInOrder issues a fire-and-forget write and, from
// the same goroutine, a read of the same address, thousands of times. The
// write is queued; the read would find the shard's owner lock free while
// the worker has not yet run the write, and only the pending count keeps
// it from running inline ahead of the write. Reads rotate through every
// waiting entry point: Read, TryReadTraced and ReadBatch.
func TestAsyncWriteThenReadInOrder(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	ops := make([]ReadBatchOp, 1)
	for i := 0; i < 5000; i++ {
		addr := uint64(i % 64)
		want := lineWith(uint64(i), 99)
		if err := e.WriteAsync(addr, want); err != nil {
			t.Fatal(err)
		}
		var got ReadResult
		switch i % 3 {
		case 0:
			got, err = e.Read(addr)
		case 1:
			got, err = e.TryReadTraced(ctx, addr, e.NewTrace())
		default:
			ops[0] = ReadBatchOp{Addr: addr}
			err = e.ReadBatch(ops)
			got = ops[0].Res
		}
		if err != nil {
			t.Fatal(err)
		}
		if !got.Hit || got.Data != want {
			t.Fatalf("iteration %d: read of addr %d overtook the write queued before it (hit=%v word0=%d)",
				i, addr, got.Hit, got.Data.Word(0))
		}
	}
}

// TestPendingCoversRunningBatch parks a worker inside a drained batch. The
// shard must still count that batch as pending: a count lowered at dequeue
// would let a caller find it zero before the batch ran, and run ahead of
// it. That window is too narrow for the ordering test to hit reliably.
func TestPendingCoversRunningBatch(t *testing.T) {
	e, _ := wedgeShard0(t)
	if n := e.shards[0].pending.Load(); n != 1 {
		t.Fatalf("pending = %d while the worker runs the parked write, want 1", n)
	}
}

// TestInlineMatchesQueued runs one mixed op stream through two engines.
// Every call on the first finds its shard idle and runs inline; the second
// carries a phantom pending request on every shard, so every call queues
// for the worker. Outcomes, simulated latencies and summaries must be
// identical: each shard runs the same op sequence through the same code.
func TestInlineMatchesQueued(t *testing.T) {
	for _, scheme := range []string{"esd", "esd+caram"} {
		t.Run(scheme, func(t *testing.T) {
			inline, err := New(testConfig(), scheme, Options{Shards: 4, Metrics: true, Tracing: true})
			if err != nil {
				t.Fatal(err)
			}
			defer inline.Close()
			queued, err := New(testConfig(), scheme, Options{Shards: 4, Metrics: true, Tracing: true})
			if err != nil {
				t.Fatal(err)
			}
			defer queued.Close()
			for _, s := range queued.shards {
				s.pending.Add(1)
			}

			ctx := context.Background()
			rng := xrand.New(7)
			wops := [2][]WriteBatchOp{make([]WriteBatchOp, 16), make([]WriteBatchOp, 16)}
			rops := [2][]ReadBatchOp{make([]ReadBatchOp, 16), make([]ReadBatchOp, 16)}
			for i := 0; i < 1500; i++ {
				addr := rng.Uint64n(512)
				line := lineWith(rng.Uint64n(24), 5)
				switch op := rng.Uint64n(6); op {
				case 0, 1:
					var outs [2]memctrl.WriteOutcome
					for k, e := range []*Engine{inline, queued} {
						if op == 0 {
							outs[k], err = e.Write(addr, line)
						} else {
							outs[k], err = e.TryWriteTraced(ctx, addr, line, e.NewTrace())
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					if outs[0] != outs[1] {
						t.Fatalf("op %d: write outcome inline %+v, queued %+v", i, outs[0], outs[1])
					}
				case 2, 3:
					var res [2]ReadResult
					for k, e := range []*Engine{inline, queued} {
						if op == 2 {
							res[k], err = e.Read(addr)
						} else {
							res[k], err = e.TryReadTraced(ctx, addr, e.NewTrace())
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					if res[0] != res[1] {
						t.Fatalf("op %d: read of %d inline hit=%v lat=%v, queued hit=%v lat=%v",
							i, addr, res[0].Hit, res[0].Lat, res[1].Hit, res[1].Lat)
					}
				case 4:
					for j := range wops[0] {
						wops[0][j] = WriteBatchOp{Addr: rng.Uint64n(512), Line: lineWith(rng.Uint64n(24), 5)}
						wops[1][j] = wops[0][j]
					}
					if err := inline.WriteBatch(wops[0]); err != nil {
						t.Fatal(err)
					}
					if err := queued.TryWriteBatchTraced(ctx, wops[1], queued.NewTrace()); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wops[0], wops[1]) {
						t.Fatalf("op %d: write batch outcomes diverged", i)
					}
				default:
					for j := range rops[0] {
						rops[0][j] = ReadBatchOp{Addr: rng.Uint64n(512)}
						rops[1][j] = rops[0][j]
					}
					if err := inline.TryReadBatchTraced(ctx, rops[0], inline.NewTrace()); err != nil {
						t.Fatal(err)
					}
					if err := queued.ReadBatch(rops[1]); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rops[0], rops[1]) {
						t.Fatalf("op %d: read batch results diverged", i)
					}
				}
			}
			sums := [2]Summary{}
			for k, e := range []*Engine{inline, queued} {
				if sums[k], err = e.Summary(); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(sums[0], sums[1]) {
				t.Fatalf("summaries diverged:\ninline %+v\nqueued %+v", sums[0], sums[1])
			}
			if sums[0].Scheme.DedupWrites == 0 || sums[0].Scheme.Reads == 0 {
				t.Fatalf("stream exercised no dedup or no reads: %+v", sums[0].Scheme)
			}
		})
	}
}

// exclusiveScheme counts the calls that found another goroutine already
// inside its shard's scheme.
type exclusiveScheme struct {
	memctrl.Scheme
	inside  atomic.Int32
	overlap atomic.Int32
}

func (x *exclusiveScheme) enter() {
	if x.inside.Add(1) != 1 {
		x.overlap.Add(1)
	}
	runtime.Gosched() // widen the window an overlap would need
}

func (x *exclusiveScheme) Write(logical uint64, data *ecc.Line, at sim.Time) memctrl.WriteOutcome {
	x.enter()
	defer x.inside.Add(-1)
	return x.Scheme.Write(logical, data, at)
}

func (x *exclusiveScheme) Read(logical uint64, at sim.Time) memctrl.ReadOutcome {
	x.enter()
	defer x.inside.Add(-1)
	return x.Scheme.Read(logical, at)
}

// TestOneOwnerAtATime drives every entry point from many goroutines at
// once, so requests run both inline and on the workers, and requires that
// no two goroutines are ever inside one shard's scheme together. Under
// -race it also covers the telemetry and flight ring each owner touches.
func TestOneOwnerAtATime(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 2, QueueDepth: 4, Batch: 4, Metrics: true, Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	guards := make([]*exclusiveScheme, len(e.shards))
	for i, s := range e.shards {
		// Installed before the first request, which orders it before any
		// owner's reads of s.sch.
		guards[i] = &exclusiveScheme{Scheme: s.sch}
		s.sch = guards[i]
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			rng := xrand.New(uint64(g) + 1)
			wops := make([]WriteBatchOp, 6)
			rops := make([]ReadBatchOp, 6)
			for i := 0; i < 300; i++ {
				addr := rng.Uint64n(64)
				line := lineWith(uint64(g), rng.Uint64n(5))
				var err error
				switch rng.Uint64n(6) {
				case 0:
					_, err = e.Write(addr, line)
				case 1:
					err = e.WriteAsync(addr, line)
				case 2:
					_, err = e.Read(addr)
				case 3:
					_, err = e.TryWriteTraced(ctx, addr, line, e.NewTrace())
				case 4:
					for j := range wops {
						wops[j] = WriteBatchOp{Addr: rng.Uint64n(64), Line: line}
					}
					err = e.WriteBatch(wops)
				default:
					for j := range rops {
						rops[j] = ReadBatchOp{Addr: rng.Uint64n(64)}
					}
					err = e.TryReadBatchTraced(ctx, rops, e.NewTrace())
				}
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, x := range guards {
		if n := x.overlap.Load(); n != 0 {
			t.Errorf("shard %d: %d scheme calls overlapped another owner's", i, n)
		}
	}
}

// TestInlineNeverShedsNorAbandons pins the two flow-control rules: an
// idle shard runs a Try call inline even when its context is already done
// and its queue holds one slot, while on a busy shard the same call queues,
// its wait is abandoned, and only the next call, which finds the queue
// full, is shed. The abandoned write still executes.
func TestInlineNeverShedsNorAbandons(t *testing.T) {
	e, open := wedgeShard0(t) // shard 0 busy; queue depth 1
	done, cancel := context.WithCancel(context.Background())
	cancel()

	// Shard 1 is idle: inline, so neither shed nor abandoned.
	for i := uint64(0); i < 8; i++ {
		if _, err := e.TryWriteTraced(done, 2*i+1, lineWith(i), e.NewTrace()); err != nil {
			t.Fatalf("inline write %d: %v", i, err)
		}
		got, err := e.TryReadTraced(done, 2*i+1, e.NewTrace())
		if err != nil || !got.Hit || got.Data != lineWith(i) {
			t.Fatalf("inline read %d: err=%v hit=%v", i, err, got.Hit)
		}
	}
	if e.Shed() != 0 {
		t.Fatalf("an idle shard shed %d requests", e.Shed())
	}

	// Shard 0 is busy: the first call takes the free queue slot and its
	// wait is abandoned; the second finds the queue full.
	if _, err := e.TryWriteTraced(done, 2, lineWith(42), e.NewTrace()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued write with a done context: err=%v, want context.Canceled", err)
	}
	if e.Shed() != 0 {
		t.Fatal("a queue with a free slot shed a request")
	}
	if _, err := e.TryReadTraced(context.Background(), 2, e.NewTrace()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: err=%v, want ErrOverloaded", err)
	}
	if e.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", e.Shed())
	}
	open()
	got, err := e.Read(2)
	if err != nil || !got.Hit || got.Data != lineWith(42) {
		t.Fatalf("abandoned write did not execute: err=%v hit=%v", err, got.Hit)
	}
}

// TestCloseRacesInlineCallers closes engines while callers run requests
// inline and submitters block on full queues. Close must return, and
// every caller must finish with a result or ErrClosed. The lock order is
// what makes this hold: an inline caller that took the owner lock before
// Engine.mu could deadlock, since Close waits for a blocked submitter's
// read lock, the submitter for the worker, the worker for the owner lock,
// and the caller for Engine.mu behind Close. That window is a few
// instructions wide, so this stress test exercises the shutdown paths
// rather than reliably catching a reversed order.
func TestCloseRacesInlineCallers(t *testing.T) {
	for round := 0; round < 20; round++ {
		t.Run(fmt.Sprint(round), func(t *testing.T) {
			e, err := New(testConfig(), "baseline", Options{Shards: 2, QueueDepth: 1, Batch: 1})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			var calls atomic.Int64
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					ctx := context.Background()
					ops := make([]ReadBatchOp, 4)
					for i := 0; ; i++ {
						addr := uint64(g + i)
						var err error
						switch {
						case g < 2: // submitters that block on a full queue
							err = e.WriteAsync(addr, lineWith(addr))
						case i%3 == 0:
							_, err = e.Write(addr, lineWith(addr))
						case i%3 == 1:
							_, err = e.TryReadTraced(ctx, addr, e.NewTrace())
						default:
							for j := range ops {
								ops[j].Addr = addr + uint64(j)
							}
							err = e.ReadBatch(ops)
						}
						calls.Add(1)
						if errors.Is(err, ErrClosed) {
							return
						}
						if err != nil && !errors.Is(err, ErrOverloaded) {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			for deadline := time.Now().Add(2 * time.Second); calls.Load() < int64(50*(round%4+1)) && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
			closed := make(chan struct{})
			go func() {
				e.Close()
				wg.Wait()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close or a caller did not return")
			}
		})
	}
}
