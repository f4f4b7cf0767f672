package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/telemetry"
)

// parkAt is a scheme wrapper whose n-th write blocks until gate opens,
// leaving its caller in the middle of a batch. It is not a BatchWriter, so
// a write sub-batch runs through it op by op.
type parkAt struct {
	memctrl.Scheme
	n       int
	entered chan struct{}
	gate    chan struct{}
}

func (p *parkAt) Write(logical uint64, data *ecc.Line, at sim.Time) memctrl.WriteOutcome {
	if p.n--; p.n == 0 {
		close(p.entered)
		<-p.gate
	}
	return p.Scheme.Write(logical, data, at)
}

// scrapeEndpoints serves /metrics from the engine's registry and a /statusz
// whose stage section comes from StageSnapshot, the two renders that
// publish staged telemetry.
func scrapeEndpoints(t *testing.T, e *Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(telemetry.NewHandler(e.Registry(), telemetry.HandlerOptions{
		Status: func() any {
			hists, _ := e.StageSnapshot()
			counts := make(map[string]uint64, len(hists))
			for i := range hists {
				counts[telemetry.Stage(i).String()] = hists[i].Count()
			}
			return counts
		},
	}))
	t.Cleanup(srv.Close)
	return srv
}

// scrape fetches both endpoints and returns the writes shard 0 has
// published and the efit stage count (one per write on esd), plus the
// slower of the two response times.
func scrape(t *testing.T, url string) (writes0, efit uint64, took time.Duration) {
	t.Helper()
	fetch := func(path string) []byte {
		start := time.Now()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		took = max(took, time.Since(start))
		return body
	}
	for _, line := range strings.Split(string(fetch("/metrics")), "\n") {
		if v, ok := strings.CutPrefix(line, `esd_writes_total{shard="0"} `); ok {
			fmt.Sscan(v, &writes0)
		}
	}
	var stages map[string]uint64
	if err := json.Unmarshal(fetch("/statusz"), &stages); err != nil {
		t.Fatal(err)
	}
	return writes0, stages["efit"], took
}

// TestWedgedShardNeverBlocksScrape parks shard 0 in the middle of a write
// sub-batch. /metrics and /statusz must still answer within the publish
// wait, showing what was published before the batch (and shard 1's fresh
// values); the first scrape after the shard resumes must show the whole
// batch.
func TestWedgedShardNeverBlocksScrape(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 2, Metrics: true, Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := scrapeEndpoints(t, e)
	for addr := uint64(0); addr < 8; addr++ { // 4 writes per shard
		if _, err := e.Write(addr, lineWith(addr)); err != nil {
			t.Fatal(err)
		}
	}
	if w0, efit, _ := scrape(t, srv.URL); w0 != 4 || efit != 8 {
		t.Fatalf("idle scrape: shard 0 writes %d, efit stages %d; want 4, 8", w0, efit)
	}

	p := &parkAt{Scheme: e.shards[0].sch, n: 3, entered: make(chan struct{}), gate: make(chan struct{})}
	e.shards[0].own.Lock() // the owner lock orders the swap before the next owner's reads
	e.shards[0].sch = p
	e.shards[0].own.Unlock()
	batch := make([]WriteBatchOp, 6)
	for i := range batch {
		batch[i] = WriteBatchOp{Addr: uint64(100 + 2*i), Line: lineWith(uint64(i), 5)} // all on shard 0
	}
	done := make(chan error, 1)
	go func() { done <- e.WriteBatch(batch) }()
	<-p.entered
	if _, err := e.Write(1001, lineWith(7)); err != nil { // shard 1 keeps serving
		t.Fatal(err)
	}

	bound := telemetry.PublishWait + 2*time.Second
	w0, efit, took := scrape(t, srv.URL)
	if took > bound {
		t.Errorf("scrape with a wedged shard took %v, want under %v", took, bound)
	}
	if w0 != 4 || efit != 9 {
		t.Errorf("wedged scrape: shard 0 writes %d, efit stages %d; want the last published 4 and 4+5", w0, efit)
	}

	close(p.gate)
	if w0, efit, _ := scrape(t, srv.URL); w0 != 10 || efit != 15 {
		t.Errorf("first scrape after resume: shard 0 writes %d, efit stages %d; want 10, 15", w0, efit)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBusyShardPublishesAtBatchEnd checks the lag bound on a shard that is
// busy, not wedged: a render asks the worker, and the worker publishes at
// the end of the batch it is running, so the render shows that batch.
func TestBusyShardPublishesAtBatchEnd(t *testing.T) {
	e, err := New(testConfig(), "esd", Options{Shards: 1, Metrics: true, Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.shards[0]
	p := &parkAt{Scheme: s.sch, n: 1, entered: make(chan struct{}), gate: make(chan struct{})}
	s.own.Lock()
	s.sch = p
	s.own.Unlock()
	for addr := uint64(0); addr < 5; addr++ {
		if err := e.WriteAsync(addr, lineWith(addr)); err != nil {
			t.Fatal(err)
		}
	}
	<-p.entered
	rendered := make(chan [telemetry.NumStages]uint64, 1)
	go func() {
		hists, _ := e.StageSnapshot()
		var n [telemetry.NumStages]uint64
		for i := range hists {
			n[i] = hists[i].Count()
		}
		rendered <- n
	}()
	for !s.pub.Asked() { // the render has asked the busy worker
		time.Sleep(time.Millisecond)
	}
	close(p.gate)
	n := <-rendered
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// The worker drained every queued write into its first batch or the
	// next; either way the render waited for the end of a batch that
	// contains the parked write.
	if got := n[telemetry.StageEFIT]; got == 0 || got > 5 {
		t.Errorf("render during a busy batch saw %d writes, want the batch (1..5)", got)
	}
}
