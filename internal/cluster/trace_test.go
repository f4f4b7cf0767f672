package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/telemetry"
)

// hopKinds collects the hop-kind names recorded under one trace ID.
func hopKinds(recs []telemetry.Record, trace uint64) map[string]int {
	out := make(map[string]int)
	for _, rec := range recs {
		if rec.Trace == trace {
			out[rec.Kind]++
		}
	}
	return out
}

// backendHasTrace reports whether any shard flight record on b carries
// the trace ID.
func backendHasTrace(b *testBackend, trace uint64) bool {
	for _, rec := range b.eng.FlightRecords() {
		if rec.Trace == trace {
			return true
		}
	}
	return false
}

// waitForTrace polls b's flight recorder for the trace ID (hedged losers
// finish in the background after the router has already answered).
func waitForTrace(t *testing.T, b *testBackend, trace uint64) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if backendHasTrace(b, trace) {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// One trace ID, minted at the router, must surface at every layer: the
// client-visible response, the router's hop recorder, and the backend
// node's per-shard flight recorder.
func TestRouterTracePropagation(t *testing.T) {
	backends, r := startCluster(t, 2, Config{})
	trace := r.NewTraceID()
	if trace == 0 {
		t.Fatal("NewTraceID returned 0")
	}

	const addr = 7
	wout, err := r.WriteTraced(trace, addr, lineFor(addr))
	if err != nil {
		t.Fatal(err)
	}
	if wout.Trace != trace {
		t.Fatalf("write response trace = %#x, want %#x", wout.Trace, trace)
	}
	rout, err := r.ReadTraced(trace, addr)
	if err != nil {
		t.Fatal(err)
	}
	if rout.Trace != trace {
		t.Fatalf("read response trace = %#x, want %#x", rout.Trace, trace)
	}

	// The owning node's flight recorder carries the fleet ID.
	found := false
	for _, b := range backends {
		if backendHasTrace(b, trace) {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %#x missing from every backend flight recorder", trace)
	}

	// The router's own recorder has the request's hop decomposition.
	kinds := hopKinds(r.HopRecords(), trace)
	for _, want := range []string{"route", "checkout", "attempt"} {
		if kinds[want] == 0 {
			t.Errorf("router flight recorder has no %q hop for trace %#x (got %v)", want, trace, kinds)
		}
	}
}

// One routed scalar write names one address everywhere it is recorded:
// the router's hop records and both replicas' engine records carry the
// logical address, not a shard's local one (the nodes run 2 shards, so
// the odd address maps to local line 3 on shard 1).
func TestRoutedWriteRecordsOneAddr(t *testing.T) {
	backends, r := startCluster(t, 2, Config{Replication: 2})
	const addr = 7
	trace := r.NewTraceID()
	if _, err := r.WriteTraced(trace, addr, lineFor(addr)); err != nil {
		t.Fatal(err)
	}
	hops := 0
	for _, rec := range r.HopRecords() {
		if rec.Trace != trace {
			continue
		}
		hops++
		if rec.Addr != addr {
			t.Errorf("router %s record addr = %d, want %d", rec.Kind, rec.Addr, addr)
		}
	}
	if hops == 0 {
		t.Fatal("no router records for the write")
	}
	for _, b := range backends {
		writes := 0
		for _, rec := range b.eng.FlightRecords() {
			if rec.Trace != trace {
				continue
			}
			writes++
			if rec.Kind != "write" || rec.Addr != addr {
				t.Errorf("node %s: %s record addr = %d, want a write at %d", b.node.Name, rec.Kind, rec.Addr, addr)
			}
		}
		if writes != 1 {
			t.Errorf("node %s holds %d records of the write, want 1", b.node.Name, writes)
		}
	}
}

// The router HTTP surface: /statusz carries the hops section, /debug/
// flightrecorder dumps hop records, /statusz/cluster aggregates the
// fleet (members, shards, merged device health).
func TestClusterServerTraceEndpoints(t *testing.T) {
	backends, r := startCluster(t, 2, Config{})
	srv, err := NewServer(r, ServeConfig{TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	for a := uint64(0); a < 64; a++ {
		if _, err := r.Write(a, lineFor(a)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(a); err != nil {
			t.Fatal(err)
		}
	}

	base := "http://" + srv.HTTPAddr()
	var st Status
	getTestJSON(t, base+"/statusz", &st)
	if st.Hops["route"].Count == 0 || st.Hops["attempt"].Count == 0 {
		t.Fatalf("/statusz hops section incomplete: %+v", st.Hops)
	}
	if st.FlightRecords == 0 {
		t.Fatal("/statusz flight_records = 0 after traffic")
	}

	var recs []telemetry.Record
	getTestJSON(t, base+"/debug/flightrecorder", &recs)
	if len(recs) == 0 {
		t.Fatal("/debug/flightrecorder empty after traffic")
	}
	seenRoute := false
	for _, rec := range recs {
		if rec.Kind == "route" && rec.Trace != 0 {
			seenRoute = true
		}
	}
	if !seenRoute {
		t.Fatal("/debug/flightrecorder has no traced route events")
	}

	var cs ClusterStatus
	getTestJSON(t, base+"/statusz/cluster", &cs)
	if cs.Reachable != len(backends) {
		t.Fatalf("/statusz/cluster reachable = %d, want %d", cs.Reachable, len(backends))
	}
	wantShards := 0
	for _, b := range backends {
		wantShards += b.eng.NumShards()
	}
	if cs.Shards != wantShards {
		t.Fatalf("/statusz/cluster shards = %d, want %d", cs.Shards, wantShards)
	}
	if cs.Device == nil || cs.Device.MediaWrites == 0 {
		t.Fatalf("/statusz/cluster device merge missing: %+v", cs.Device)
	}
	for _, m := range cs.Members {
		if !m.Reachable || m.Status == nil {
			t.Fatalf("member %s not scraped: %+v", m.Name, m)
		}
	}
}

// The end-to-end tracing contract: one trace ID appears at the router,
// the winning node AND the losing hedge node; and across a
// retry-after-markDown failover the same ID follows the request to the
// surviving replica.
func TestTraceAcrossHedgeAndFailover(t *testing.T) {
	t.Run("hedge", func(t *testing.T) {
		backends, r := startCluster(t, 2, Config{
			Replication: 2, HedgeAfter: time.Nanosecond, ReadRepairEvery: -1,
		})
		const addr = 42
		if _, err := r.Write(addr, lineFor(addr)); err != nil {
			t.Fatal(err)
		}
		// With a 1ns hedge delay the follower almost always launches, but
		// a primary reply that is ready before the router sees its hedge
		// timer wins without a hedge; read again until one read hedged.
		var trace uint64
		for i := 0; i < 20 && r.hedges.Load() == 0; i++ {
			trace = r.NewTraceID()
			resp, err := r.ReadTraced(trace, addr)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Trace != trace {
				t.Fatalf("read response trace = %#x, want %#x", resp.Trace, trace)
			}
		}
		// The loser finishes in the background. Both replicas must end up
		// holding the same fleet ID — winner and loser alike.
		for _, b := range backends {
			if !waitForTrace(t, b, trace) {
				t.Fatalf("trace %#x never reached node %s (hedge loser must record it too)", trace, b.node.Name)
			}
		}
		// The losing attempt's hop event lands when the loser finishes in
		// the background; poll for both attempts.
		deadline := time.Now().Add(5 * time.Second)
		kinds := hopKinds(r.HopRecords(), trace)
		for kinds["attempt"] < 2 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			kinds = hopKinds(r.HopRecords(), trace)
		}
		if kinds["hedge"] == 0 {
			t.Fatalf("router recorded no hedge hop for trace %#x: %v", trace, kinds)
		}
		if kinds["attempt"] < 2 {
			t.Fatalf("expected attempts on both replicas, got %v", kinds)
		}
	})

	t.Run("failover", func(t *testing.T) {
		// ProbeInterval is an hour: only the traced request itself may
		// discover the dead primary, so the markDown carries our ID.
		backends, r := startCluster(t, 2, Config{
			Replication: 2, RetriesPerNode: 1, ReadRepairEvery: -1, ProbeInterval: time.Hour,
		})
		const addr = 42
		if _, err := r.Write(addr, lineFor(addr)); err != nil {
			t.Fatal(err)
		}

		var set [2 * maxReplicas]*nodeState
		n := r.routeSet(addr, false, set[:])
		if n < 2 {
			t.Fatalf("replica set size %d, want >= 2", n)
		}
		primary, follower := set[0], set[1]
		for _, b := range backends {
			if b.node.Name == primary.node.Name {
				b.kill(t)
			}
		}

		trace := r.NewTraceID()
		resp, err := r.ReadTraced(trace, addr)
		if err != nil {
			t.Fatalf("read after primary loss: %v", err)
		}
		if !resp.Hit || resp.Trace != trace {
			t.Fatalf("failover read: hit=%v trace=%#x want %#x", resp.Hit, resp.Trace, trace)
		}
		if primary.up.Load() {
			t.Fatal("dead primary still marked up after traced request")
		}

		kinds := hopKinds(r.HopRecords(), trace)
		for _, want := range []string{"retry", "mark-down", "failover", "attempt", "route"} {
			if kinds[want] == 0 {
				t.Errorf("router hop records missing %q for failover trace %#x: %v", want, trace, kinds)
			}
		}
		// The surviving replica served the read under the same ID.
		for _, b := range backends {
			if b.node.Name == follower.node.Name && !waitForTrace(t, b, trace) {
				t.Fatalf("trace %#x never reached surviving replica %s", trace, b.node.Name)
			}
		}
		// The mark-down event is attributed to the primary by name.
		for _, rec := range r.HopRecords() {
			if rec.Trace == trace && rec.Kind == "mark-down" && rec.Node != primary.node.Name {
				t.Errorf("mark-down attributed to %q, want %q", rec.Node, primary.node.Name)
			}
		}
	})
}

func getTestJSON(t *testing.T, url string, into interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// A client frame with trace 0 gets a router-minted fleet ID back, and the
// same ID sits in the router's hop recorder and reaches the owning node; a
// nonzero client ID is adopted and echoed instead.
func TestClusterFrontMintsTrace(t *testing.T) {
	backends, r, s := startClusterServer(t, 2, Config{})
	c, err := server.DialTCP(s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w, err := c.Write(5, lineFor(5))
	if err != nil {
		t.Fatal(err)
	}
	if w.Trace == 0 {
		t.Fatal("trace-0 write through the front came back with trace 0")
	}
	if kinds := hopKinds(r.HopRecords(), w.Trace); kinds["route"] == 0 || kinds["attempt"] == 0 {
		t.Fatalf("minted trace %#x missing from the hop recorder: %v", w.Trace, kinds)
	}
	found := false
	for _, b := range backends {
		found = found || backendHasTrace(b, w.Trace)
	}
	if !found {
		t.Fatalf("minted trace %#x never reached a node", w.Trace)
	}

	const mine = 0xC0FFEE
	rd, err := c.ReadTraced(mine, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Hit || rd.Trace != mine {
		t.Fatalf("traced read: hit=%v trace=%#x, want hit with %#x", rd.Hit, rd.Trace, mine)
	}

	res := make([]server.BatchWriteResult, 2)
	echo, err := c.WriteBatchTraced(0, []server.BatchWriteOp{{Addr: 6, Line: lineFor(6)}, {Addr: 7, Line: lineFor(7)}}, res)
	if err != nil {
		t.Fatal(err)
	}
	if echo == 0 || hopKinds(r.HopRecords(), echo)["route"] == 0 {
		t.Fatalf("trace-0 batch echoed %#x, want a minted ID in the hop recorder", echo)
	}
}
