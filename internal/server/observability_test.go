package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/telemetry"
)

// syncBuf is an io.Writer safe to read from the test goroutine while the
// server's handlers are still writing slow-request lines.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestObservabilityEndpointsFresh checks every introspection endpoint on
// a server that has served no traffic: all must answer well-formed
// responses (the flight recorder as an empty-but-valid JSON array, the
// status document without stage histograms).
func TestObservabilityEndpointsFresh(t *testing.T) {
	_, s := testServer(t, shard.Options{Shards: 2, Tracing: true}, Config{})
	cases := []struct {
		path     string
		wantCode int
		check    func(t *testing.T, body string)
	}{
		{"/healthz", http.StatusOK, func(t *testing.T, body string) {
			if strings.TrimSpace(body) != "ok" {
				t.Errorf("healthz body = %q", body)
			}
		}},
		{"/readyz", http.StatusOK, func(t *testing.T, body string) {
			if strings.TrimSpace(body) != "ready" {
				t.Errorf("readyz body = %q", body)
			}
		}},
		{"/statusz", http.StatusOK, func(t *testing.T, body string) {
			var st StatuszResponse
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Fatalf("statusz not JSON: %v\n%s", err, body)
			}
			if !st.Ready || st.Shards != 2 || !st.Tracing {
				t.Errorf("statusz = %+v, want ready, 2 shards, tracing", st)
			}
			if len(st.QueueDepths) != 2 || st.QueueCap <= 0 {
				t.Errorf("queue depths %v cap %d", st.QueueDepths, st.QueueCap)
			}
			if len(st.Stages) != 0 {
				t.Errorf("fresh server has stage data: %v", st.Stages)
			}
		}},
		{"/debug/flightrecorder", http.StatusOK, func(t *testing.T, body string) {
			var recs []telemetry.Record
			if err := json.Unmarshal([]byte(body), &recs); err != nil {
				t.Fatalf("flightrecorder not JSON: %v\n%s", err, body)
			}
			if len(recs) != 0 {
				t.Errorf("fresh server has %d flight records", len(recs))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			code, body := get(t, s.URL()+tc.path)
			if code != tc.wantCode {
				t.Fatalf("GET %s = %d, want %d\n%s", tc.path, code, tc.wantCode, body)
			}
			tc.check(t, body)
		})
	}
}

// TestObservabilityEndpointsAfterTraffic drives writes and reads through
// the engine, then asserts /statusz reports per-stage percentiles and the
// flight recorder replays the requests with their trace ids.
func TestObservabilityEndpointsAfterTraffic(t *testing.T) {
	_, s := testServer(t, shard.Options{Shards: 2, Tracing: true}, Config{})
	c := NewHTTPClient(s.URL())
	defer c.Close()

	var traces []uint64
	for i := 0; i < 8; i++ {
		w, err := c.Write(uint64(i), line(uint64(i), 99))
		if err != nil {
			t.Fatal(err)
		}
		if w.Trace == 0 {
			t.Fatal("write response missing trace id")
		}
		traces = append(traces, w.Trace)
	}
	if _, err := c.Read(3); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, s.URL()+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz = %d", code)
	}
	var st StatuszResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz not JSON: %v", err)
	}
	if len(st.Stages) == 0 {
		t.Fatalf("statusz has no stage data after traffic: %s", body)
	}
	// ESD's fingerprint stage is absent by design: the fingerprint falls
	// out of the ECC pipeline at zero marginal latency (the paper's core
	// trick), so only the stages that cost time appear.
	for _, stage := range []string{"efit", "encrypt", "media", "amt"} {
		sg, ok := st.Stages[stage]
		if !ok || sg.Count == 0 {
			t.Errorf("stage %q missing or empty in %v", stage, st.Stages)
		}
		if sg.P99Ns < sg.P50Ns {
			t.Errorf("stage %q p99 %v < p50 %v", stage, sg.P99Ns, sg.P50Ns)
		}
	}
	if st.FlightRecords == 0 {
		t.Error("statusz reports zero flight records after traffic")
	}

	code, body = get(t, s.URL()+"/debug/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("flightrecorder = %d", code)
	}
	var recs []telemetry.Record
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("flightrecorder not JSON: %v", err)
	}
	if len(recs) != 9 { // 8 writes + 1 read
		t.Fatalf("flight recorder has %d records, want 9", len(recs))
	}
	byTrace := make(map[uint64]telemetry.Record)
	for _, r := range recs {
		byTrace[r.Trace] = r
	}
	for _, tr := range traces {
		r, ok := byTrace[tr]
		if !ok {
			t.Fatalf("trace %d not in flight recorder", tr)
		}
		if r.Kind != "write" || r.LatNs <= 0 {
			t.Errorf("trace %d record = %+v", tr, r)
		}
		if r.StagesNs == nil {
			t.Errorf("trace %d write record has no stage breakdown", tr)
		}
	}
}

// TestDeviceEndpoint drives a hot-line workload (one hammered address
// plus duplicate content) and asserts /debug/device exposes the wear
// heatmap rows, dedup effectiveness and histogram needed to diagnose it,
// and that /statusz carries the compact device + rates sections.
func TestDeviceEndpoint(t *testing.T) {
	eng, s := testServer(t, shard.Options{Shards: 2}, Config{})
	c := NewHTTPClient(s.URL())
	defer c.Close()

	// 32 writes of changing content to one address (a hot line — each
	// write is unique so the media line really rewrites), plus 16 writes
	// of identical content across distinct addresses (dedup hits).
	for i := 0; i < 32; i++ {
		if _, err := c.Write(7, line(uint64(i), 5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if _, err := c.Write(uint64(100+i*64), line(42)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read(7); err != nil {
		t.Fatal(err)
	}
	// Flush barriers every worker, publishing the last batch's staged
	// health accounting before the assertions below read it.
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, s.URL()+"/debug/device")
	if code != http.StatusOK {
		t.Fatalf("debug/device = %d\n%s", code, body)
	}
	var dev DeviceResponse
	if err := json.Unmarshal([]byte(body), &dev); err != nil {
		t.Fatalf("debug/device not JSON: %v\n%s", err, body)
	}
	if dev.Scheme == "" || dev.Shards != 2 {
		t.Errorf("scheme=%q shards=%d, want esd/2", dev.Scheme, dev.Shards)
	}
	if dev.MediaWrites == 0 || dev.LinesTouched == 0 {
		t.Errorf("no media writes recorded: %+v", dev)
	}
	if len(dev.Banks) == 0 || len(dev.WearHist) == 0 {
		t.Errorf("banks=%d hist=%d, want both nonempty", len(dev.Banks), len(dev.WearHist))
	}
	var bankWrites uint64
	for _, b := range dev.Banks {
		bankWrites += b.Writes
	}
	if bankWrites != dev.MediaWrites {
		t.Errorf("bank writes %d != media writes %d", bankWrites, dev.MediaWrites)
	}
	// The hammered line must make the wear distribution visibly skewed.
	if dev.Wear.Max < 16 || dev.Wear.Skew <= 1 {
		t.Errorf("wear max=%d skew=%.2f, want hammered line to dominate", dev.Wear.Max, dev.Wear.Skew)
	}
	if dev.Dedup.Writes != 48 {
		t.Errorf("dedup.writes = %d, want 48", dev.Dedup.Writes)
	}
	if dev.Dedup.DedupWrites == 0 || dev.Dedup.HitRate <= 0 || dev.Dedup.BytesSaved == 0 {
		t.Errorf("duplicate content not deduped: %+v", dev.Dedup)
	}

	var st StatuszResponse
	_, body = get(t, s.URL()+"/statusz")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Device == nil || st.Rates == nil {
		t.Fatalf("statusz missing device/rates sections: %s", body)
	}
	if st.Device.MediaWrites != dev.MediaWrites || st.Device.MaxWear != dev.Wear.Max {
		t.Errorf("statusz device %+v disagrees with /debug/device %+v", st.Device, dev.Wear)
	}
	if st.Rates.WindowS <= 0 {
		t.Errorf("rates window = %v", st.Rates.WindowS)
	}
}

// TestReadyzWhileDraining exercises the not-ready state: once Shutdown
// has begun, /readyz must flip to 503 and /statusz must report
// ready=false, while /healthz (liveness) stays 200. The handlers are
// driven directly because the listener is gone by then.
func TestReadyzWhileDraining(t *testing.T) {
	_, s := testServer(t, shard.Options{Shards: 1}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	h := s.mux()
	cases := []struct {
		path     string
		wantCode int
		contains string
	}{
		{"/healthz", http.StatusOK, "ok"},
		{"/readyz", http.StatusServiceUnavailable, "draining"},
		{"/statusz", http.StatusOK, `"ready":false`},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
			if rec.Code != tc.wantCode {
				t.Fatalf("GET %s = %d, want %d", tc.path, rec.Code, tc.wantCode)
			}
			if !strings.Contains(rec.Body.String(), tc.contains) {
				t.Errorf("GET %s body %q missing %q", tc.path, rec.Body.String(), tc.contains)
			}
		})
	}
}

// TestSlowRequestLogging sets a threshold every request exceeds and
// asserts the slow log captures trace-stamped lines and /statusz counts
// them.
func TestSlowRequestLogging(t *testing.T) {
	var buf syncBuf
	_, s := testServer(t, shard.Options{Shards: 1},
		Config{SlowRequestThreshold: time.Nanosecond, SlowLog: &buf})
	c := NewHTTPClient(s.URL())
	defer c.Close()

	w, err := c.Write(7, line(1))
	if err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	if !strings.Contains(log, "slow request") || !strings.Contains(log, "http write") {
		t.Fatalf("slow log missing entry: %q", log)
	}
	if !strings.Contains(log, "trace=") {
		t.Fatalf("slow log entry not trace-stamped: %q", log)
	}
	var st StatuszResponse
	_, body := get(t, s.URL()+"/statusz")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.SlowRequests == 0 {
		t.Error("statusz slow_requests = 0 after a slow request")
	}
	_ = w
}

// TestFlightRecorderDumpDecodable checks the SIGQUIT-style full dump:
// after traffic (including a request abandoned mid-flight by its
// deadline) every JSONL line after the header must decode back into a
// telemetry.Record.
func TestFlightRecorderDumpDecodable(t *testing.T) {
	eng, s := testServer(t, shard.Options{Shards: 1, Tracing: true}, Config{})
	c := NewHTTPClient(s.URL())
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.Write(uint64(i), line(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A request whose caller gave up mid-flight: the shard still executes
	// it, so it must still appear in (and not corrupt) the black box.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _ = eng.TryWriteTraced(ctx, 50, line(50), eng.NewTrace())
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	s.DumpFlightRecorder(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("dump too short:\n%s", buf.String())
	}
	if !strings.Contains(lines[0], "flight recorder dump") {
		t.Errorf("dump header = %q", lines[0])
	}
	decoded := 0
	for _, ln := range lines[1:] {
		var rec telemetry.Record
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("undecodable dump line %q: %v", ln, err)
		}
		if rec.Kind != "write" && rec.Kind != "read" {
			t.Errorf("record kind = %q", rec.Kind)
		}
		decoded++
	}
	if decoded < 5 {
		t.Errorf("decoded %d records, want >= 5 (4 writes + abandoned)", decoded)
	}
}
