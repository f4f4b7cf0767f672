package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
)

// TestHandlerIntrospectionEndpoints is the table-driven sweep over the
// telemetry handler's health/status/flight surface, covering the nil-hook
// defaults, the not-ready state, and the drained (empty flight) state.
func TestHandlerIntrospectionEndpoints(t *testing.T) {
	flight := NewFlightRecorder(8)
	st := StageTimes{StageEncrypt: 40}
	flight.RecordWrite(0, TraceCtx{TraceID: 7, Span: 1}, 100, 100, false, 0, 50, &st)

	cases := []struct {
		name     string
		opts     HandlerOptions
		path     string
		wantCode int
		check    func(t *testing.T, body string)
	}{
		{
			name: "healthz always ok", path: "/healthz", wantCode: 200,
			check: func(t *testing.T, body string) {
				if strings.TrimSpace(body) != "ok" {
					t.Errorf("body = %q", body)
				}
			},
		},
		{
			name: "readyz defaults ready without hook", path: "/readyz", wantCode: 200,
			check: func(t *testing.T, body string) {
				if strings.TrimSpace(body) != "ready" {
					t.Errorf("body = %q", body)
				}
			},
		},
		{
			name: "readyz not ready",
			opts: HandlerOptions{Ready: func() bool { return false }},
			path: "/readyz", wantCode: http.StatusServiceUnavailable,
			check: func(t *testing.T, body string) {
				if !strings.Contains(body, "not ready") {
					t.Errorf("body = %q", body)
				}
			},
		},
		{
			name: "statusz without hook reports readiness",
			opts: HandlerOptions{Ready: func() bool { return false }},
			path: "/statusz", wantCode: 200,
			check: func(t *testing.T, body string) {
				var m map[string]any
				if err := json.Unmarshal([]byte(body), &m); err != nil {
					t.Fatalf("not JSON: %v", err)
				}
				if m["ready"] != false {
					t.Errorf("ready = %v, want false", m["ready"])
				}
			},
		},
		{
			name: "statusz serves the hook document",
			opts: HandlerOptions{Status: func() any { return map[string]int{"queue": 3} }},
			path: "/statusz", wantCode: 200,
			check: func(t *testing.T, body string) {
				var m map[string]int
				if err := json.Unmarshal([]byte(body), &m); err != nil {
					t.Fatalf("not JSON: %v", err)
				}
				if m["queue"] != 3 {
					t.Errorf("doc = %v", m)
				}
			},
		},
		{
			name: "flightrecorder without hook is empty array",
			path: "/debug/flightrecorder", wantCode: 200,
			check: func(t *testing.T, body string) {
				var recs []Record
				if err := json.Unmarshal([]byte(body), &recs); err != nil {
					t.Fatalf("not JSON: %v (%q)", err, body)
				}
				if len(recs) != 0 {
					t.Errorf("records = %v", recs)
				}
			},
		},
		{
			name: "flightrecorder drained recorder is empty array",
			opts: HandlerOptions{Flight: NewFlightRecorder(8).Snapshot},
			path: "/debug/flightrecorder", wantCode: 200,
			check: func(t *testing.T, body string) {
				var recs []Record
				if err := json.Unmarshal([]byte(body), &recs); err != nil {
					t.Fatalf("not JSON: %v (%q)", err, body)
				}
				if len(recs) != 0 {
					t.Errorf("records = %v", recs)
				}
			},
		},
		{
			name: "flightrecorder serves recorded requests",
			opts: HandlerOptions{Flight: flight.Snapshot},
			path: "/debug/flightrecorder", wantCode: 200,
			check: func(t *testing.T, body string) {
				var recs []Record
				if err := json.Unmarshal([]byte(body), &recs); err != nil {
					t.Fatalf("not JSON: %v", err)
				}
				if len(recs) != 1 || recs[0].Trace != 7 || recs[0].Kind != "write" {
					t.Fatalf("records = %+v", recs)
				}
				if s := recs[0].StagesNs; s == nil || s.Encrypt <= 0 {
					t.Errorf("stage breakdown = %+v", s)
				}
			},
		},
		{
			name: "index lists endpoints", path: "/", wantCode: 200,
			check: func(t *testing.T, body string) {
				for _, want := range []string{"/healthz", "/readyz", "/statusz", "/debug/flightrecorder", "/metrics"} {
					if !strings.Contains(body, want) {
						t.Errorf("index missing %s:\n%s", want, body)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHandler(NewRegistry(), tc.opts)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
			if rec.Code != tc.wantCode {
				t.Fatalf("GET %s = %d, want %d\n%s", tc.path, rec.Code, tc.wantCode, rec.Body.String())
			}
			tc.check(t, rec.Body.String())
		})
	}
}

// TestFlightRecorderWraparound fills the ring past capacity and checks the
// snapshot keeps exactly the newest capacity records, oldest first.
func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(4)
	if f.Cap() != 4 {
		t.Fatalf("cap = %d", f.Cap())
	}
	for i := 1; i <= 10; i++ {
		f.RecordRead(2, TraceCtx{TraceID: uint64(i)}, uint64(i), true, 0, 10)
	}
	recs := f.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(recs))
	}
	for i, r := range recs {
		want := uint64(7 + i) // records 7..10 survive
		if r.Trace != want {
			t.Errorf("record %d trace = %d, want %d", i, r.Trace, want)
		}
		if r.Shard != 2 || r.Kind != "read" {
			t.Errorf("record %d = %+v", i, r)
		}
	}
}

// TestFlightRecorderConcurrentSnapshot hammers the ring from writer
// goroutines while snapshotting: every returned record must be internally
// consistent (torn slots are skipped, never surfaced). Run under -race in
// CI.
func TestFlightRecorderConcurrentSnapshot(t *testing.T) {
	f := NewFlightRecorder(16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := StageTimes{StageMedia: 150}
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f.RecordWrite(w, TraceCtx{TraceID: uint64(i)}, uint64(w), uint64(w), true, 0, sim.Time(w+1)*sim.Nanosecond, &st)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, r := range f.Snapshot() {
			// lat encodes the writing shard (+1); a torn read that mixed two
			// writers' slots would break this invariant.
			if r.LatNs != float64(r.Shard+1) {
				t.Fatalf("torn record: shard=%d lat=%v", r.Shard, r.LatNs)
			}
			if r.Kind != "write" || !r.Dedup {
				t.Fatalf("torn record: %+v", r)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestFlightRecorderRoundsToPowerOfTwo pins the sizing contract.
func TestFlightRecorderRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {4, 4}, {100, 128}, {0, DefaultFlightSlots}, {-5, DefaultFlightSlots}} {
		if got := NewFlightRecorder(tc.in).Cap(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestStagesFromBreakdown pins the Breakdown -> stage-vector mapping the
// statusz stage names depend on.
func TestStagesFromBreakdown(t *testing.T) {
	bd := stats.Breakdown{
		Queue:        1,
		FPCompute:    2,
		FPLookupSRAM: 3,
		FPLookupNVMM: 4,
		ReadCompare:  5,
		Encrypt:      6,
		Media:        7,
		Metadata:     8,
	}
	st := StagesFromBreakdown(&bd)
	want := map[Stage]int64{
		StageQueue: 1, StageFingerprint: 2, StageEFIT: 3, StageFPNVMM: 4,
		StageNVMVerify: 5, StageEncrypt: 6, StageMedia: 7, StageAMT: 8,
	}
	for stage, v := range want {
		if int64(st[stage]) != v {
			t.Errorf("stage %v = %v, want %v", stage, st[stage], v)
		}
	}
}
