package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/telemetry"
)

// canned builds an httptest server serving fixed /statusz and
// /debug/device documents shaped like a hot-line workload: one bank with
// 40x the wear of its neighbours.
func canned(t *testing.T) *httptest.Server {
	t.Helper()
	st := server.StatuszResponse{
		Scheme:      "esd",
		Shards:      2,
		Ready:       true,
		UptimeS:     63,
		QueueDepths: []int{3, 0},
		QueueCap:    128,
		Rates:       &server.RateStatus{WindowS: 15, WritesPerS: 1200, ReadsPerS: 300},
		Stages: map[string]telemetry.LatencySummary{
			"efit":  {Count: 10, P50Ns: 420, P99Ns: 980},
			"media": {Count: 10, P50Ns: 60000, P99Ns: 120000},
		},
	}
	dev := server.DeviceResponse{
		Scheme:      "esd",
		Shards:      2,
		MediaWrites: 5000,
		Wear:        server.WearStatus{Max: 40, P99: 2, Mean: 1.2, Skew: 33.3},
		Energy:      server.EnergyStatus{ReadNJ: 1230, WriteNJ: 4560},
		Dedup:       server.DedupStatus{Writes: 6000, Reads: 1000, DedupWrites: 1000, HitRate: 0.1667, BytesSaved: 64000},
		Banks: []server.BankRow{
			{Shard: 0, Bank: 0, MaxWear: 1}, {Shard: 0, Bank: 1, MaxWear: 40},
			{Shard: 1, Bank: 0, MaxWear: 1}, {Shard: 1, Bank: 1, MaxWear: 1},
		},
		Hybrid: &server.HybridStatus{
			DRAMHits: 900, DRAMMisses: 100, HitRate: 0.9,
			Promotions: 50, Demotions: 20, Writebacks: 8,
			WALAppends: 700, AbsorbedWrites: 700,
			CapacityLines: 1024, ResidentLines: 30, DirtyLines: 5,
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/debug/device", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(dev)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestOnceRendersDashboard runs the full CLI path (-once) against a
// canned server and checks every dashboard section appears — including
// the hot-line warning and the single bright heatmap cell that diagnose
// a hammered address.
func TestOnceRendersDashboard(t *testing.T) {
	srv := canned(t)
	var buf bytes.Buffer
	if err := cliMain([]string{"-once", "-addr", srv.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"scheme=esd", "2 shards", "ready",
		"1200 wr/s", "server 15s window",
		"efit", "420/980",
		"hit  16.7%", "saved 62.5 KiB",
		"max 40", "skew 33.3x", "⚠ HOT LINE",
		"wear heatmap",
		"shard 0   ▁█",
		"shard 1   ▁▁",
		"hybrid      dram hit  90.0%", "promo 50 / demo 20 (wb 8)", "resident 30/1024 (5 dirty)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Error("-once must not clear the screen")
	}
}

// TestClientSideRates checks the frame-to-frame delta path preferred
// over server rates once two samples exist.
func TestClientSideRates(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	prev := newSample(t0, &server.DeviceResponse{Dedup: server.DedupStatus{Writes: 1000, Reads: 100}})
	cur := newSample(t0.Add(2*time.Second), &server.DeviceResponse{Dedup: server.DedupStatus{Writes: 1400, Reads: 200}})
	if v, ok := rate(prev, cur, prev.writes, cur.writes); !ok || v != 200 {
		t.Errorf("write rate = %v/%v, want 200 ops/s", v, ok)
	}
	if v, ok := rate(prev, cur, prev.reads, cur.reads); !ok || v != 50 {
		t.Errorf("read rate = %v/%v, want 50 ops/s", v, ok)
	}
	// First frame and counter resets fall back to server rates.
	if _, ok := rate(sample{}, cur, 0, cur.writes); ok {
		t.Error("rate with no previous frame must not be ok")
	}
	if _, ok := rate(prev, cur, 500, 400); ok {
		t.Error("rate across a counter reset must not be ok")
	}
}

// TestHeatCell pins the glyph scaling: zero stays the coldest block,
// max hits the hottest, and scaling is monotonic.
func TestHeatCell(t *testing.T) {
	if got := heatCell(0, 100); got != '▁' {
		t.Errorf("heatCell(0) = %c", got)
	}
	if got := heatCell(100, 100); got != '█' {
		t.Errorf("heatCell(max) = %c", got)
	}
	if got := heatCell(5, 0); got != '▁' {
		t.Errorf("heatCell with zero max = %c", got)
	}
	last := 0
	for v := uint64(0); v <= 100; v += 10 {
		idx := strings.IndexRune(string(heatBlocks), heatCell(v, 100))
		if idx < last {
			t.Fatalf("heatCell not monotonic at %d", v)
		}
		last = idx
	}
}

// TestRenderWithoutDevice covers older servers lacking /debug/device:
// the dashboard must still render the serving sections.
func TestRenderWithoutDevice(t *testing.T) {
	var buf bytes.Buffer
	render(&buf, &server.StatuszResponse{Scheme: "esd", Shards: 1, Ready: true}, nil, sample{}, sample{at: time.Now()})
	if !strings.Contains(buf.String(), "no /debug/device") {
		t.Errorf("missing fallback note:\n%s", buf.String())
	}
}
