package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/telemetry"
)

// cannedRouter serves fixed /statusz and /statusz/cluster documents: a
// three-member fleet with one unreachable node and a merged device view.
func cannedRouter(t *testing.T) *httptest.Server {
	t.Helper()
	st := cluster.Status{
		Epoch:       3,
		Replication: 2,
		Healthy:     2,
		Nodes: []cluster.NodeStatus{
			{Name: "node0", Healthy: true}, {Name: "node1", Healthy: true}, {Name: "node2"},
		},
		Retries:       4,
		Failovers:     1,
		Hedges:        12,
		UptimeS:       300,
		FlightRecords: 812,
		Hops: map[string]telemetry.LatencySummary{
			"route":   {Count: 100, P50Ns: 250000, P99Ns: 900000},
			"attempt": {Count: 120, P50Ns: 200000, P99Ns: 800000},
		},
	}
	memberOK := server.StatuszResponse{
		Shards: 4, Ready: true,
		Rates:        &server.RateStatus{WritesPerS: 1200, ReadsPerS: 300},
		SlowRequests: 2,
	}
	cs := cluster.ClusterStatus{
		Members: []cluster.MemberStatus{
			{Name: "node0", Healthy: true, Reachable: true, Status: &memberOK},
			{Name: "node1", Healthy: true, Reachable: true, Status: &memberOK},
			{Name: "node2", Healthy: false, Error: "connection refused"},
		},
		Reachable: 2, Shards: 8,
		SlowRequests: 4, WritesPerS: 2400, ReadsPerS: 600,
		Device: &server.DeviceStatus{
			MediaWrites: 10000, MediaReads: 2000,
			MaxWear: 40, P99Wear: 2, MeanWear: 1.2, WearSkew: 33.3,
			EnergyReadNJ: 1230, EnergyWriteNJ: 4560,
			DedupHitRate: 0.25, BytesSaved: 128000,
		},
		WearHist: []nvm.WearBucket{{Lo: 0, Hi: 1, Lines: 900}, {Lo: 2, Hi: 3, Lines: 10}},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/statusz/cluster", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(cs)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRouterOnceRendersFleet runs the full -router -once CLI path
// against a canned router and checks every fleet section appears.
func TestRouterOnceRendersFleet(t *testing.T) {
	srv := cannedRouter(t)
	var buf bytes.Buffer
	if err := cliMain([]string{"-router", "-once", "-addr", srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"epoch 3", "3 nodes (2 healthy)", "replication 2",
		"812 flight records",
		"retries=4 failovers=1 hedges=12",
		"hops (p50/p99 ns)", "route", "attempt",
		"2/3 members reachable", "8 shards",
		"node0", "node2", "connection refused",
		"hit  25.0%", "skew 33.3x", "⚠ HOT LINE",
		"wear hist",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet dashboard missing %q:\n%s", want, out)
		}
	}
}

// Without /statusz/cluster (older router) the fleet section degrades
// but the frame still renders.
func TestRouterOnceDegradesWithoutClusterEndpoint(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(cluster.Status{Epoch: 1, Healthy: 1,
			Nodes: []cluster.NodeStatus{{Name: "n0", Healthy: true}}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	var buf bytes.Buffer
	if err := cliMain([]string{"-router", "-once", "-addr", srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no /statusz/cluster endpoint") {
		t.Errorf("missing degradation notice:\n%s", buf.String())
	}
}
