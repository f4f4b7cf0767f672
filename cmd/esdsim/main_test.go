package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	esd "github.com/esdsim/esd"
)

func TestResolveScheme(t *testing.T) {
	cases := map[string]string{
		"0": esd.SchemeBaseline, "1": esd.SchemeSHA1,
		"2": esd.SchemeDeWrite, "3": esd.SchemeESD,
		"esd": esd.SchemeESD, "bcd": esd.SchemeBCD,
		"dewrite": esd.SchemeDeWrite,
	}
	for in, want := range cases {
		got, err := resolveScheme(in)
		if err != nil || got != want {
			t.Errorf("resolveScheme(%q) = %q, %v", in, got, err)
		}
	}
	if _, err := resolveScheme("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestPrintJSON(t *testing.T) {
	sys, err := esd.NewSystem(esd.DefaultConfig(), esd.SchemeESD)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetWarmup(500)
	res, err := sys.RunWorkload("leela", 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := printJSON(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"scheme": "esd"`, `"dedup_rate"`, `"write_mean_ns"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
}

func TestCompareSchemesRuns(t *testing.T) {
	cfg := esd.DefaultConfig()
	cfg.PCM.CapacityBytes = 1 << 28
	var sb strings.Builder
	if err := compareSchemes(&sb, cfg, "leela", 1, 500, 1500); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "esd") {
		t.Fatalf("comparison output missing esd row:\n%s", sb.String())
	}
	if err := compareSchemes(io.Discard, cfg, "nosuch", 1, 10, 10); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestCLIMetricsEndpoint runs the CLI with -metrics-addr and scrapes the
// live Prometheus endpoint through the test hook while the server is up.
func TestCLIMetricsEndpoint(t *testing.T) {
	var scraped, vars string
	metricsServerHook = func(url string) {
		scraped = httpGet(t, url+"/metrics")
		vars = httpGet(t, url+"/debug/vars")
	}
	defer func() { metricsServerHook = nil }()

	var sb strings.Builder
	err := cliMain([]string{
		"-scheme", "esd", "-app", "leela", "-warmup", "200", "-n", "1000",
		"-metrics-addr", "127.0.0.1:0", "-pprof",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "metrics: http://") {
		t.Errorf("stdout missing metrics URL:\n%s", sb.String())
	}
	for _, want := range []string{
		"# TYPE esd_writes_total counter",
		"# TYPE esd_write_latency_ns histogram",
		`esd_write_decision_total{decision="unique-fp-miss"}`,
		"esd_write_latency_ns_bucket{le=\"+Inf\"}",
		"esd_amt_cache_hits_total",
		"esd_device_writes_total",
	} {
		if !strings.Contains(scraped, want) {
			t.Errorf("/metrics missing %q:\n%.2000s", want, scraped)
		}
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(vars), &parsed); err != nil {
		t.Fatalf("/debug/vars not valid JSON: %v\n%s", err, vars)
	}
	if _, ok := parsed["esd_writes_total"]; !ok {
		t.Errorf("/debug/vars missing esd_writes_total:\n%s", vars)
	}
	// The writes counter must be a positive number: the run really reported.
	if v, ok := parsed["esd_writes_total"].(float64); !ok || v <= 0 {
		t.Errorf("esd_writes_total = %v, want > 0", parsed["esd_writes_total"])
	}
}

// TestCLITraceJSONLRoundTrip checks that -trace-out produces a JSONL trace
// the public decoder round-trips.
func TestCLITraceJSONLRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "events.jsonl")
	err := cliMain([]string{
		"-scheme", "esd", "-app", "leela", "-warmup", "100", "-n", "500",
		"-trace-out", out, "-trace-sample", "4",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := esd.ReadTraceEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event trace")
	}
	var hasWrite, hasRunEnd bool
	var lastSeq uint64
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("sequence numbers not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case "write":
			hasWrite = true
			if ev.Decision == "" || ev.Clock != "sim" || ev.LatNs <= 0 {
				t.Errorf("write record missing decision, clock or latency: %+v", ev)
			}
		case "run-end":
			hasRunEnd = true
		}
	}
	if !hasWrite || !hasRunEnd {
		t.Errorf("trace missing expected kinds (write=%v run-end=%v)", hasWrite, hasRunEnd)
	}
}

// TestCLITraceChromeShape checks the Chrome trace_event export: a JSON
// array of objects with ph/ts/name and args.
func TestCLITraceChromeShape(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	err := cliMain([]string{
		"-scheme", "esd", "-app", "leela", "-warmup", "100", "-n", "500",
		"-trace-out", out, "-trace-format", "chrome", "-trace-sample", "8",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatalf("chrome trace not a JSON array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("empty chrome trace")
	}
	var sawComplete bool
	for _, ev := range evs {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", ev)
		}
		if ev.Ph == "X" {
			sawComplete = true
			if ev.Dur <= 0 {
				t.Errorf("complete event with non-positive dur: %+v", ev)
			}
		}
	}
	if !sawComplete {
		t.Error("no complete (ph=X) slices in chrome trace")
	}
}

// TestCLIFlagValidation covers the telemetry flag error paths.
func TestCLIFlagValidation(t *testing.T) {
	if err := cliMain([]string{"-pprof", "-app", "leela"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-metrics-addr") {
		t.Errorf("-pprof without -metrics-addr accepted: %v", err)
	}
	out := filepath.Join(t.TempDir(), "x")
	if err := cliMain([]string{"-trace-out", out, "-trace-format", "bogus", "-app", "leela"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "trace-format") {
		t.Errorf("bogus -trace-format accepted: %v", err)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
