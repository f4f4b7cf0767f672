package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
)

// hopSnapshot copies a hop latency set's published histograms.
func hopSnapshot(h *LatencySet) [NumHops]stats.Histogram {
	var out [NumHops]stats.Histogram
	h.Snapshot(out[:])
	return out
}

// Nil-receiver no-op audit: recording a hop and observing its latency
// must be safe no-ops on nil receivers, matching the Sink convention.
func TestHopNilReceivers(t *testing.T) {
	var r *FlightRecorder
	node := "node0"
	r.RecordHop(HopAttempt, 1, 'W', &node, 42, 0, 0, time.Now().UnixNano(), time.Millisecond)
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil recorder Snapshot = %v, want nil", got)
	}
	if r.Len() != 0 || r.Cap() != 0 {
		t.Errorf("nil recorder Len/Cap = %d/%d, want 0/0", r.Len(), r.Cap())
	}

	var h *LatencySet
	h.Observe(int(HopRoute), sim.Millisecond)
	snap := hopSnapshot(h)
	for i := range snap {
		if snap[i].Count() != 0 {
			t.Errorf("nil histograms Snapshot[%d].Count = %d, want 0", i, snap[i].Count())
		}
	}
}

func TestHopStrings(t *testing.T) {
	want := map[Hop]string{
		HopRoute:      "route",
		HopAttempt:    "attempt",
		HopCheckout:   "checkout",
		HopRetry:      "retry",
		HopFailover:   "failover",
		HopHedge:      "hedge",
		HopHedgeWin:   "hedge-win",
		HopReadRepair: "read-repair",
		HopMarkDown:   "mark-down",
	}
	if len(want) != NumHops {
		t.Fatalf("test covers %d hops, NumHops = %d", len(want), NumHops)
	}
	seen := map[string]bool{}
	for h, name := range want {
		if got := h.String(); got != name {
			t.Errorf("Hop(%d).String() = %q, want %q", h, got, name)
		}
		if seen[name] {
			t.Errorf("duplicate hop name %q", name)
		}
		seen[name] = true
	}
	if got := Hop(200).String(); got != "unknown" {
		t.Errorf("out-of-range hop String() = %q, want unknown", got)
	}
	for h, name := range want {
		if got := hopKind(h).String(); got != name || !hopKind(h).router() {
			t.Errorf("hopKind(%v) = %q (router %v), want the router kind %q", h, got, hopKind(h).router(), name)
		}
	}
	for k := KindWrite; k < kindHop; k++ {
		if k.router() || seen[k.String()] || k.String() == "unknown" {
			t.Errorf("engine kind %d named %q", k, k.String())
		}
		seen[k.String()] = true
	}
}

// TestRingSlotSize pins the cost of one record: a ring slot — the record,
// its lock and its sequence — is what every shard write fills, so the
// record must not grow past the shard's 120-byte write record.
func TestRingSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(ringSlot[rec]{}); n > 136 {
		t.Errorf("ring slot is %d bytes, want at most 136", n)
	}
}

func TestHopRecorderRoundTrip(t *testing.T) {
	r := NewFlightRecorder(8)
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	const at = int64(1 << 40) // exact in a float64
	n1, n2 := "node1", "node2"
	r.RecordHop(HopAttempt, 7, 'W', &n1, 42, 1, 0, at, 3*time.Millisecond)
	r.RecordHop(HopFailover, 7, 'R', &n2, 42, 0, 2, at+1, time.Millisecond)
	r.RecordHop(HopRoute, 8, 'B', nil, 43, 3, 0, at+2, 0)
	recs := r.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(recs))
	}
	a := recs[0]
	if a.Trace != 7 || a.Layer != "router" || a.Clock != "wall" || a.Kind != "attempt" || a.Op != "write" ||
		a.Node != "node1" || a.Addr != 42 || a.Attempt != 1 || a.Status != 0 || a.AtNs != float64(at) || a.LatNs != 3e6 {
		t.Errorf("first record decoded wrong: %+v", a)
	}
	b := recs[1]
	if b.Kind != "failover" || b.Op != "read" || b.Status != 2 {
		t.Errorf("second record decoded wrong: %+v", b)
	}
	if c := recs[2]; c.Kind != "route" || c.Op != "write-batch" || c.Node != "" || c.Attempt != 3 {
		t.Errorf("route record decoded wrong: %+v", c)
	}
	if b.Seq <= a.Seq {
		t.Errorf("sequence not ascending: %d then %d", a.Seq, b.Seq)
	}
}

// The ring must hold exactly the last Cap() records after wraparound.
func TestHopRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(4)
	node := "n"
	for i := 0; i < 11; i++ {
		r.RecordHop(HopAttempt, uint64(i+1), 'W', &node, uint64(i), 0, 0, int64(i), 0)
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("Snapshot len = %d, want 4 after wraparound", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(8 + i); rec.Trace != want {
			t.Errorf("record %d trace = %d, want %d (oldest-first tail)", i, rec.Trace, want)
		}
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
}

// Recording and observing must not allocate: they sit on the router's
// data path for every attempt of every routed request.
func TestHopRecordingDoesNotAllocate(t *testing.T) {
	r := NewFlightRecorder(64)
	h := NewLatencySet(NumHops)
	node := "node0"
	at := time.Now().UnixNano()
	if n := testing.AllocsPerRun(200, func() {
		r.RecordHop(HopAttempt, 9, 'W', &node, 7, 0, 0, at, time.Millisecond)
	}); n != 0 {
		t.Errorf("FlightRecorder.RecordHop allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(int(HopAttempt), sim.Millisecond)
	}); n != 0 {
		t.Errorf("LatencySet.Observe allocates %.1f/op, want 0", n)
	}
}

// Concurrent Record vs Snapshot must never tear a record: every decoded
// event's fields are derived from its trace ID, so a mixed record is
// detectable. Run with -race.
func TestHopRecorderConcurrentSnapshot(t *testing.T) {
	r := NewFlightRecorder(32)
	node := "n"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.RecordHop(HopAttempt, i, 'W', &node, i*3, int(i%5), byte(i%7), int64(i), time.Duration(i))
		}
	}()
	for k := 0; k < 50; k++ {
		for _, rec := range r.Snapshot() {
			if rec.Trace == 0 {
				continue
			}
			if rec.Addr != rec.Trace*3 || rec.Attempt != int(rec.Trace%5) ||
				rec.Status != int(rec.Trace%7) || rec.AtNs != float64(rec.Trace) {
				t.Fatalf("torn record: %+v", rec)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestHopHistogramsObserve(t *testing.T) {
	h := NewLatencySet(NumHops)
	h.Observe(int(HopAttempt), 2*sim.Millisecond)
	h.Observe(int(HopAttempt), 4*sim.Millisecond)
	h.Observe(int(HopRoute), sim.Millisecond)
	h.Observe(250, sim.Second) // out of range: dropped, not a panic
	h.Observe(-1, sim.Second)
	snap := hopSnapshot(h)
	if snap[HopAttempt].Count() != 2 {
		t.Errorf("attempt count = %d, want 2", snap[HopAttempt].Count())
	}
	if snap[HopRoute].Count() != 1 {
		t.Errorf("route count = %d, want 1", snap[HopRoute].Count())
	}
	if ns := snap[HopRoute].Mean().Nanoseconds(); ns < 0.9e6 || ns > 1.1e6 {
		t.Errorf("route mean = %v ns, want ~1e6", ns)
	}
	if snap[HopHedge].Count() != 0 {
		t.Errorf("hedge count = %d, want 0", snap[HopHedge].Count())
	}
}

// TestHopHistogramAboveRange covers wall-clock hops longer than the
// histogram's 10.75 ms top bucket, such as an attempt that ran into the
// 2 s request timeout: the router's /statusz and esdtop read their p50 and
// p99 from Percentile, which must report the samples, not the bucket's
// bound, and the Prometheus exposition must count them only under +Inf.
func TestHopHistogramAboveRange(t *testing.T) {
	h := NewLatencySet(NumHops)
	h.Observe(int(HopAttempt), sim.Microsecond)
	for i := 0; i < 5; i++ {
		h.Observe(int(HopAttempt), 2*sim.Second)
	}
	snap := hopSnapshot(h)[HopAttempt]
	for _, p := range []float64{0.5, 0.99} {
		if got := snap.Percentile(p); got != 2*sim.Second {
			t.Errorf("hop P%v = %v, want 2s", p*100, got)
		}
	}

	reg := NewRegistry()
	th := reg.Histogram("t_hop_ns", "hop latency")
	for i := 0; i < 5; i++ {
		th.Observe(2 * sim.Second)
	}
	th.Observe(100 * sim.Nanosecond)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `le="1.075e+07"`) {
		t.Errorf("samples above the range exposed under the overflow bucket's nominal bound:\n%s", out)
	}
	var finite []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "t_hop_ns_bucket{") && !strings.Contains(line, "+Inf") {
			finite = append(finite, line)
		}
	}
	if len(finite) != 1 || !strings.HasSuffix(finite[0], "} 1") {
		t.Errorf("finite buckets %q, want only the 100 ns sample's", finite)
	}
	for _, want := range []string{`t_hop_ns_bucket{le="+Inf"} 6`, "t_hop_ns_count 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
