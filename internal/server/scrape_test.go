package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/trace"
	"github.com/esdsim/esd/internal/xrand"
)

// TestScrapeDuringWrites scrapes /metrics, /debug/vars and /statusz while 8
// goroutines drive the engine through every entry point, so the race
// detector sees publication racing the shards' owners, inline and queued.
// At quiescence the published write and read counters must equal the
// barrier Summary's, and so must the device and byte-compare counters,
// which the sinks publish from the device's and the schemes' own counts.
func TestScrapeDuringWrites(t *testing.T) {
	e, s := testServer(t, shard.Options{Shards: 4, Metrics: true, Tracing: true, QueueDepth: 16}, Config{})
	const writers, rounds = 8, 120
	var wg sync.WaitGroup
	var stop atomic.Bool
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, path := range []string{"/metrics", "/debug/vars", "/statusz"} {
					resp, err := http.Get(s.URL() + path)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s answered %d", path, resp.StatusCode)
					}
				}
			}
		}()
	}
	var clients sync.WaitGroup
	for w := 0; w < writers; w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			r := xrand.New(uint64(w + 1))
			ctx := context.Background()
			addr := func() uint64 { return r.Uint64n(4096) }
			wops := make([]shard.WriteBatchOp, 8)
			rops := make([]shard.ReadBatchOp, 8)
			for i := 0; i < rounds; i++ {
				l := line(r.Uint64n(32), uint64(w))
				var err error
				switch i % 12 {
				case 0:
					_, err = e.Write(addr(), l)
				case 1:
					err = e.WriteAsync(addr(), l)
				case 2:
					_, err = e.TryWrite(ctx, addr(), l)
				case 3:
					_, err = e.TryWriteTraced(ctx, addr(), l, e.NewTrace())
				case 4, 5:
					for k := range wops {
						wops[k] = shard.WriteBatchOp{Addr: addr(), Line: l}
					}
					if i%12 == 4 {
						err = e.WriteBatch(wops)
					} else {
						err = e.TryWriteBatchTraced(ctx, wops, e.NewTrace())
					}
				case 6:
					_, err = e.Read(addr())
				case 7:
					_, err = e.TryRead(ctx, addr())
				case 8:
					_, err = e.TryReadTraced(ctx, addr(), e.NewTrace())
				case 9, 10:
					for k := range rops {
						rops[k] = shard.ReadBatchOp{Addr: addr()}
					}
					if i%12 == 9 {
						err = e.ReadBatch(rops)
					} else {
						err = e.TryReadBatchTraced(ctx, rops, e.NewTrace())
					}
				default:
					if w == 0 {
						_, err = e.Replay(trace.NewSliceStream([]trace.Record{{Op: trace.OpWrite, Addr: addr(), Data: l}}))
					} else {
						err = e.Flush()
					}
				}
				if err != nil && !strings.Contains(err.Error(), "queue full") {
					t.Error(err)
				}
			}
		}(w)
	}
	clients.Wait()
	stop.Store(true)
	wg.Wait()

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	_, body := get(t, s.URL()+"/metrics")
	published := make(map[string]uint64) // summed over shards
	for _, ln := range strings.Split(body, "\n") {
		if name, rest, ok := strings.Cut(ln, "{"); ok && !strings.HasPrefix(ln, "#") {
			var v uint64
			fmt.Sscan(rest[strings.IndexByte(rest, ' ')+1:], &v)
			published[name] += v
		}
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"esd_writes_total", sum.Scheme.Writes},
		{"esd_reads_total", sum.Scheme.Reads},
		{"esd_device_reads_total", sum.DeviceReads},
		{"esd_device_writes_total", sum.DeviceWrites},
		{"esd_compare_reads_total", sum.Scheme.CompareReads},
		{"esd_compare_mismatches_total", sum.Scheme.CompareMismatches},
	} {
		if got := published[c.name]; got != c.want {
			t.Errorf("published %s = %d at quiescence, summary says %d", c.name, got, c.want)
		}
	}
	if efit := s.Statusz().Stages["efit"].Count; efit != sum.Scheme.Writes {
		t.Errorf("/statusz efit stage count %d, summary writes %d", efit, sum.Scheme.Writes)
	}
}

// TestStatuszRenderAllocs bounds what one /statusz render allocates on a
// 4-shard engine whose flight recorders are full. Counting the records
// with FlightLen keeps the 4 × 256 ring slots out of the render: decoding
// them cost about 3100 allocations.
func TestStatuszRenderAllocs(t *testing.T) {
	e, s := testServer(t, shard.Options{Shards: 4, Metrics: true, Tracing: true}, Config{})
	for a := uint64(0); a < 4*512; a++ {
		if _, err := e.Write(a, line(a%7)); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.FlightLen(); n != 4*256 {
		t.Fatalf("flight recorders hold %d records, want full rings of 4 x 256", n)
	}
	var st StatuszResponse
	allocs := testing.AllocsPerRun(20, func() { st = s.Statusz() })
	if st.FlightRecords != 4*256 {
		t.Errorf("flight_records = %d, want 1024", st.FlightRecords)
	}
	if allocs > 64 {
		t.Errorf("one /statusz render allocates %.0f times, want at most 64", allocs)
	}
}
