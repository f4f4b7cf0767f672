package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/telemetry"
)

// TestEsdtraceStitchesTimeline drives the esdtrace subcommand against
// canned router and node recorders and checks the stitched output: the
// router's hop timeline, the node sections, and the cross-node summary.
func TestEsdtraceStitchesTimeline(t *testing.T) {
	const trace = 0x5f3a9c01

	// One node's engine records: the traced write plus unrelated noise.
	nodeMux := http.NewServeMux()
	nodeMux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode([]telemetry.Record{
			{Seq: 7, Layer: "engine", Clock: "sim", Trace: 999, Kind: "read", Shard: 0, Addr: 5},
			{Seq: 8, Layer: "engine", Clock: "sim", Trace: trace, Kind: "write", Shard: 1, Addr: 42, Dedup: true,
				LatNs: 180, StagesNs: &telemetry.StageNs{EFIT: 90, Media: 60}},
		})
	})
	node := httptest.NewServer(nodeMux)
	t.Cleanup(node.Close)
	nodeAddr := strings.TrimPrefix(node.URL, "http://")

	routerMux := http.NewServeMux()
	routerMux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode([]telemetry.Record{
			{Seq: 1, Layer: "router", Clock: "wall", Trace: trace, Kind: "checkout", Op: "write", Node: "alpha", Addr: 42, AtNs: 1000, LatNs: 2000},
			{Seq: 2, Layer: "router", Clock: "wall", Trace: trace, Kind: "attempt", Op: "write", Node: "alpha", Addr: 42, AtNs: 4000, LatNs: 250000},
			{Seq: 3, Layer: "router", Clock: "wall", Trace: 999, Kind: "route", Op: "read", Addr: 5, AtNs: 9000},
			{Seq: 4, Layer: "router", Clock: "wall", Trace: trace, Kind: "route", Op: "write", Addr: 42, AtNs: 500, LatNs: 260000},
		})
	})
	routerMux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(cluster.Status{
			Nodes: []cluster.NodeStatus{
				{Name: "alpha", HTTPAddr: nodeAddr, Healthy: true},
				{Name: "beta", Healthy: true}, // no HTTP address
			},
		})
	})
	router := httptest.NewServer(routerMux)
	t.Cleanup(router.Close)

	var buf bytes.Buffer
	if err := cliMain([]string{"esdtrace", "-router", router.URL, "-trace", "0x5f3a9c01"}, &buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"trace 0x5f3a9c01",
		"router: 3 hop events",
		"route", "checkout", "attempt", "node=alpha",
		"node alpha: 1 engine records",
		"seq=8", "write", "shard=1", "dedup", "stages: efit=90ns media=60ns",
		"node beta: no HTTP address",
		"3 router hops, trace seen on 1 of 1 reachable nodes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stitched timeline missing %q:\n%s", want, out)
		}
	}
	// Events are wall-clock ordered: route (t=500) before checkout (t=1000).
	if ri, ci := strings.Index(out, "route"), strings.Index(out, "checkout"); ri > ci {
		t.Errorf("timeline not sorted by wall clock:\n%s", out)
	}
	if strings.Contains(out, "seq=7") {
		t.Errorf("unrelated trace leaked into output:\n%s", out)
	}
}

func TestEsdtraceRejectsBadTrace(t *testing.T) {
	var sink discard
	if err := cliMain([]string{"esdtrace"}, &sink, nil); err == nil {
		t.Fatal("missing -trace accepted")
	}
	if err := cliMain([]string{"esdtrace", "-trace", "zzz"}, &sink, nil); err == nil {
		t.Fatal("unparseable -trace accepted")
	}
	if err := cliMain([]string{"esdtrace", "-trace", "0"}, &sink, nil); err == nil {
		t.Fatal("trace 0 accepted")
	}
}
