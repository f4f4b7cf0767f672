package server

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/shard"
)

func dialTest(t *testing.T, s *Server) *TCPClient {
	t.Helper()
	c, err := DialTCP(s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// A traced frame must adopt the wire trace ID: the response echoes it and
// the shard flight recorder holds it — the node-side halves of cross-
// cluster correlation.
func TestTCPTracedRoundTrip(t *testing.T) {
	e, s := testServer(t, shard.Options{Shards: 2}, Config{TCPAddr: "x"})
	c := dialTest(t, s)

	const trace uint64 = 0xDEADBEEF12345678
	w, err := c.WriteTraced(trace, 100, line(42, 7))
	if err != nil {
		t.Fatal(err)
	}
	if w.Trace != trace {
		t.Fatalf("write echoed trace %#x, want %#x", w.Trace, trace)
	}
	if w.LatencyNs <= 0 {
		t.Fatalf("write latency %v, want > 0", w.LatencyNs)
	}
	r, err := c.ReadTraced(trace+1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hit || r.Trace != trace+1 {
		t.Fatalf("read hit=%v trace=%#x, want hit with trace %#x", r.Hit, r.Trace, trace+1)
	}

	// The adopted ID must land in the shard flight recorder, not a fresh
	// node-local one.
	if !flightHas(e, trace) {
		t.Fatalf("trace %#x not found in flight recorder", trace)
	}

}

// A trace-0 frame asks the node to mint an ID: the response carries the
// minted ID and the shard flight recorder holds the same one.
func TestTCPMintsTrace(t *testing.T) {
	e, s := testServer(t, shard.Options{Shards: 2}, Config{TCPAddr: "x"})
	c := dialTest(t, s)

	w, err := c.Write(200, line(9))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Read(200)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]BatchReadResult, 1)
	echo, err := c.ReadBatchTraced(0, []uint64{200}, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{w.Trace, r.Trace, echo} {
		if id == 0 {
			t.Fatalf("trace-0 frames echoed IDs %#x/%#x/%#x, want all minted", w.Trace, r.Trace, echo)
		}
		if !flightHas(e, id) {
			t.Fatalf("minted trace %#x not found in flight recorder", id)
		}
	}
	if w.Trace == r.Trace || r.Trace == echo {
		t.Fatalf("minted IDs repeat: %#x %#x %#x", w.Trace, r.Trace, echo)
	}
}

func flightHas(e *shard.Engine, trace uint64) bool {
	for _, rec := range e.FlightRecords() {
		if rec.Trace == trace {
			return true
		}
	}
	return false
}

func TestTCPTracedBatch(t *testing.T) {
	e, s := testServer(t, shard.Options{Shards: 2}, Config{TCPAddr: "x"})
	c := dialTest(t, s)

	const trace = 0xA11CE
	ops := []BatchWriteOp{
		{Addr: 10, Line: line(1)},
		{Addr: 11, Line: line(2)},
		{Addr: 12, Line: line(1)}, // same content+shard as addr 10 → dedup
	}
	res := make([]BatchWriteResult, len(ops))
	echo, err := c.WriteBatchTraced(trace, ops, res)
	if err != nil {
		t.Fatal(err)
	}
	if echo != trace {
		t.Fatalf("write batch echoed trace %#x, want %#x", echo, trace)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("op %d: %v", i, res[i].Err)
		}
	}
	if !res[2].Dedup {
		t.Fatal("duplicate content in traced batch not deduplicated")
	}

	rres := make([]BatchReadResult, 2)
	echo, err = c.ReadBatchTraced(trace+1, []uint64{10, 11}, rres)
	if err != nil {
		t.Fatal(err)
	}
	if echo != trace+1 {
		t.Fatalf("read batch echoed trace %#x, want %#x", echo, trace+1)
	}
	if !rres[0].Hit || rres[0].Data != line(1) {
		t.Fatalf("batched traced read returned %+v", rres[0])
	}
	if !flightHas(e, trace) {
		t.Fatalf("batch trace %#x not found in flight recorder", trace)
	}
}

func TestAdoptTrace(t *testing.T) {
	e := testEngine(t, shard.Options{Shards: 1})
	tc := e.AdoptTrace(77)
	if tc.TraceID != 77 || tc.Span != 2 || tc.Parent != 1 {
		t.Fatalf("AdoptTrace = %+v, want TraceID 77, Span 2, Parent 1", tc)
	}
}

// A slow batch frame's log line must carry the propagated trace ID plus
// batch size and distinct-shard fan-out.
func TestSlowBatchLogFanout(t *testing.T) {
	var buf bytes.Buffer
	_, s := testServer(t, shard.Options{Shards: 2}, Config{
		TCPAddr:              "x",
		SlowRequestThreshold: time.Nanosecond, // everything is "slow"
		SlowLog:              &buf,
	})
	c := dialTest(t, s)

	ops := []BatchWriteOp{
		{Addr: 10, Line: line(1)}, // shard 0
		{Addr: 11, Line: line(2)}, // shard 1
		{Addr: 12, Line: line(3)}, // shard 0
	}
	res := make([]BatchWriteResult, len(ops))
	if _, err := c.WriteBatchTraced(0xBEEF, ops, res); err != nil {
		t.Fatal(err)
	}

	s.slowMu.Lock()
	logged := buf.String()
	s.slowMu.Unlock()
	for _, want := range []string{"trace=48879", "write-batch", "batch=3", "shards=2"} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow log missing %q; got:\n%s", want, logged)
		}
	}
}
