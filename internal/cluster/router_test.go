package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// testBackend is one in-process esdserve node.
type testBackend struct {
	node Node
	eng  *shard.Engine
	srv  *server.Server
}

func (b *testBackend) kill(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx)
	_ = b.eng.Close()
}

// startBackend boots a real server.Server (HTTP + TCP) over a small
// 2-shard engine.
func startBackend(t *testing.T, name string) *testBackend {
	t.Helper()
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 26
	cfg.Meta.EFITCacheBytes = 16 << 10
	cfg.Meta.AMTCacheBytes = 16 << 10
	eng, err := shard.New(cfg, "esd", shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, server.Config{Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"})
	if err != nil {
		_ = eng.Close()
		t.Fatal(err)
	}
	b := &testBackend{
		node: Node{Name: name, TCPAddr: srv.TCPAddr(), HTTPAddr: srv.Addr()},
		eng:  eng,
		srv:  srv,
	}
	t.Cleanup(func() { b.kill(t) })
	return b
}

func startCluster(t *testing.T, n int, cfg Config) ([]*testBackend, *Router) {
	t.Helper()
	var backends []*testBackend
	for i := 0; i < n; i++ {
		backends = append(backends, startBackend(t, fmt.Sprintf("node%d", i)))
	}
	for _, b := range backends {
		cfg.Nodes = append(cfg.Nodes, b.node)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return backends, r
}

func lineFor(v uint64) ecc.Line {
	var l ecc.Line
	l.SetWord(0, v)
	l.SetWord(1, ^v)
	return l
}

func TestRouterRoutesWritesAndReads(t *testing.T) {
	backends, r := startCluster(t, 3, Config{})
	const addrs = 256
	for a := uint64(0); a < addrs; a++ {
		if _, err := r.Write(a, lineFor(a)); err != nil {
			t.Fatalf("write %d: %v", a, err)
		}
	}
	for a := uint64(0); a < addrs; a++ {
		resp, err := r.Read(a)
		if err != nil {
			t.Fatalf("read %d: %v", a, err)
		}
		if !resp.Hit {
			t.Fatalf("read %d: miss after write", a)
		}
		want := lineFor(a)
		if string(resp.Data) != string(want[:]) {
			t.Fatalf("read %d: wrong bytes", a)
		}
	}
	// Every node must have seen traffic (the ring spreads 256 addresses
	// over 3 nodes).
	for _, b := range backends {
		st := r.state[b.node.Name]
		if st.writes.Load() == 0 {
			t.Errorf("node %s received no writes — ring not spreading", b.node.Name)
		}
	}
	// A miss for a never-written address is a clean non-hit, not an error.
	resp, err := r.Read(addrs + 100)
	if err != nil {
		t.Fatalf("miss read: %v", err)
	}
	if resp.Hit {
		t.Fatal("read of never-written address reported a hit")
	}
}

func TestRouterReplicatedSurvivesNodeLoss(t *testing.T) {
	backends, r := startCluster(t, 3, Config{Replication: 2})
	const addrs = 192
	for a := uint64(0); a < addrs; a++ {
		if _, err := r.Write(a, lineFor(a)); err != nil {
			t.Fatalf("write %d: %v", a, err)
		}
	}
	// Kill one node outright: every address still has a live replica.
	backends[1].kill(t)
	for a := uint64(0); a < addrs; a++ {
		resp, err := r.Read(a)
		if err != nil {
			t.Fatalf("read %d after node loss: %v", a, err)
		}
		if !resp.Hit {
			t.Fatalf("read %d after node loss: data lost", a)
		}
		want := lineFor(a)
		if string(resp.Data) != string(want[:]) {
			t.Fatalf("read %d after node loss: wrong bytes", a)
		}
	}
	// Writes keep landing too (on the surviving replicas).
	for a := uint64(0); a < addrs; a++ {
		if _, err := r.Write(a, lineFor(a+1000)); err != nil {
			t.Fatalf("write %d after node loss: %v", a, err)
		}
	}
	if r.Healthy(backends[1].node.Name) {
		t.Fatal("dead node still marked healthy after data-path errors")
	}
	if r.failovers.Load() == 0 {
		t.Error("no failovers recorded despite a dead primary")
	}
}

// Satellite: the health prober must observe a draining node's /readyz
// flip and pull it from rotation within one probe interval.
func TestProberStopsRoutingToDrainingNode(t *testing.T) {
	backends, r := startCluster(t, 2, Config{Replication: 2})
	r.ProbeOnce()
	for _, b := range backends {
		if !r.Healthy(b.node.Name) {
			t.Fatalf("node %s unhealthy before drain", b.node.Name)
		}
	}

	// BeginDrain flips /readyz to 503 while listeners stay open — the
	// advance announcement a load balancer keys off.
	backends[0].srv.BeginDrain()
	r.ProbeOnce() // one probe interval later...
	if r.Healthy(backends[0].node.Name) {
		t.Fatal("draining node still in rotation after a probe")
	}
	if !r.Healthy(backends[1].node.Name) {
		t.Fatal("healthy node wrongly marked down")
	}

	// All traffic must now route to the survivor without client-visible
	// errors.
	for a := uint64(0); a < 64; a++ {
		if _, err := r.Write(a, lineFor(a)); err != nil {
			t.Fatalf("write %d during drain: %v", a, err)
		}
		if _, err := r.Read(a); err != nil {
			t.Fatalf("read %d during drain: %v", a, err)
		}
	}
	if w := r.state[backends[0].node.Name].writes.Load(); w != 0 {
		t.Fatalf("draining node received %d writes after being pulled", w)
	}
}

// TestProberToleratesSlowReadyz probes a node whose /readyz answers after
// 50 ms at the cluster tests' 20 ms probe interval: answering more slowly
// than the interval is not being down.
func TestProberToleratesSlowReadyz(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(50 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(slow.Close)
	addr := strings.TrimPrefix(slow.URL, "http://")
	r, err := NewRouter(Config{
		Nodes:         []Node{{Name: "slow", TCPAddr: addr, HTTPAddr: addr}},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.ProbeOnce()
	if !r.Healthy("slow") {
		t.Fatal("a node whose /readyz answers 200 after 50 ms was marked down")
	}
}

func TestRouterReadRepairHealsDivergence(t *testing.T) {
	_, r := startCluster(t, 2, Config{Replication: 2, ReadRepairEvery: 1})
	const addr = 42
	if _, err := r.Write(addr, lineFor(7)); err != nil {
		t.Fatal(err)
	}

	// Corrupt the follower copy by writing a different line directly to
	// that node, bypassing the router.
	var idx [2]int
	ring := r.Ring()
	if n := ring.ReplicasInto(addr, 2, idx[:]); n != 2 {
		t.Fatalf("replicas = %d, want 2", n)
	}
	follower := ring.Node(idx[1])
	c, err := server.DialTCP(follower.TCPAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(addr, lineFor(666)); err != nil {
		t.Fatal(err)
	}

	// Every read is sampled (ReadRepairEvery=1): the first read must
	// return the primary's copy and rewrite the follower.
	resp, err := r.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	want := lineFor(7)
	if string(resp.Data) != string(want[:]) {
		t.Fatalf("read returned diverged bytes")
	}
	if r.repairs.Load() == 0 {
		t.Fatal("no read repair recorded for a diverged follower")
	}
	// The follower now holds the primary's copy.
	got, err := c.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != string(want[:]) {
		t.Fatal("follower still diverged after read repair")
	}
}

func TestRouterHedgedRead(t *testing.T) {
	_, r := startCluster(t, 2, Config{Replication: 2, HedgeAfter: time.Nanosecond, ReadRepairEvery: -1})
	const addrs = 32
	for a := uint64(0); a < addrs; a++ {
		if _, err := r.Write(a, lineFor(a)); err != nil {
			t.Fatal(err)
		}
	}
	for a := uint64(0); a < addrs; a++ {
		resp, err := r.Read(a)
		if err != nil {
			t.Fatalf("hedged read %d: %v", a, err)
		}
		if !resp.Hit {
			t.Fatalf("hedged read %d: miss", a)
		}
		want := lineFor(a)
		if string(resp.Data) != string(want[:]) {
			t.Fatalf("hedged read %d: wrong bytes", a)
		}
	}
	// With a 1ns trigger, hedges must have fired at least once.
	if r.hedges.Load() == 0 {
		t.Error("no hedged reads fired despite a 1ns hedge threshold")
	}
}
