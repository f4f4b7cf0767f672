package esd

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/telemetry"
)

// TestScrapeSystemDuringWrites scrapes a System while another goroutine
// drives it with back-to-back writes, so the owner lock is free only in
// the gaps between calls. A scrape must be served by the call in flight
// as that call returns, not wait out telemetry.PublishWait for a free
// lock, and must count every write completed before it began and none
// that had not begun by its end. A flight-recorder dump taken the same
// way must hold the newest of those writes.
func TestScrapeSystemDuringWrites(t *testing.T) {
	sys, err := NewSystem(smallConfig(), SchemeESD, WithMetrics(), WithFlightRecorder(64))
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var line Line
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			line.SetWord(0, i%512)
			sys.Write(i%4096, line)
			done.Add(1)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	const scrapes = 20
	var waits []time.Duration
	var buf bytes.Buffer
	var last uint64
	for len(waits) < scrapes {
		before := done.Load()
		if before <= last {
			runtime.Gosched() // let the writer move on past the last scrape
			continue
		}
		buf.Reset()
		start := time.Now()
		if err := sys.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		waits = append(waits, time.Since(start))
		after := done.Load()
		got := counterValue(t, buf.Bytes(), "esd_writes_total")
		if got < before || got > after+1 {
			t.Fatalf("scrape %d: esd_writes_total = %d, want within [%d, %d]: the writes completed before the scrape, plus at most the one in flight",
				len(waits), got, before, after+1)
		}
		last = got

		// One flight record per write, numbered from 1.
		before = done.Load()
		recs := sys.FlightRecords()
		after = done.Load()
		if len(recs) == 0 {
			t.Fatalf("scrape %d: empty flight-recorder dump", len(waits))
		}
		if newest := recs[len(recs)-1].Seq; newest < before || newest > after+1 {
			t.Fatalf("scrape %d: newest flight record %d, want within [%d, %d]", len(waits), newest, before, after+1)
		}
	}
	slices.Sort(waits)
	if med := waits[len(waits)/2]; med > telemetry.PublishWait/10 {
		t.Errorf("median scrape took %v during writes (max %v), want well under PublishWait (%v): the writer is not serving publication requests",
			med, waits[len(waits)-1], telemetry.PublishWait)
	}
}

// counterValue returns the value of an unlabeled counter in a Prometheus
// text exposition.
func counterValue(t *testing.T, exposition []byte, name string) uint64 {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("%s missing from the exposition", name)
	return 0
}

// TestTraceRendersEveryStagedRecord drives a System through more than ten
// times its stage's size between two publications, then crashes it, at
// sampling 1. The trace must hold every write and read exactly once, in
// order and numbered with strictly increasing seq, and the crash after
// them: the stage renders before it wraps, so a renderer that saw only
// what the stage held at a publication would lose all but the last
// stage's worth of requests.
func TestTraceRendersEveryStagedRecord(t *testing.T) {
	var buf bytes.Buffer
	sys, err := NewSystem(smallConfig(), SchemeESD, WithEventTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteMetrics(io.Discard); err != nil { // a publication
		t.Fatal(err)
	}
	const ops, footprint = 11 * telemetry.DefaultFlightSlots, 700
	var line Line
	for i := 0; i < ops; i++ {
		if i%3 == 2 {
			sys.Read(uint64(i % footprint))
			continue
		}
		line.SetWord(0, uint64(i%97))
		sys.Write(uint64(i%footprint), line)
	}
	sys.Crash()
	if err := sys.WriteMetrics(io.Discard); err != nil { // the next publication
		t.Fatal(err)
	}
	if err := sys.CloseTrace(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTraceEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var reqs int
	var lastSeq uint64
	crashed := false
	for _, r := range recs {
		if r.Seq <= lastSeq {
			t.Fatalf("seq %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		switch r.Kind {
		case "write", "read":
			want := "write"
			if reqs%3 == 2 {
				want = "read"
			}
			if crashed || r.Kind != want || r.Trace != uint64(reqs+1) || r.Addr != uint64(reqs%footprint) {
				t.Fatalf("request %d: got %+v (after the crash: %v), want a %s of line %d, trace %d",
					reqs+1, r, crashed, want, reqs%footprint, reqs+1)
			}
			reqs++
		case "crash":
			crashed = true
		}
	}
	if reqs != ops || !crashed {
		t.Fatalf("trace holds %d of %d requests, crash %v", reqs, ops, crashed)
	}
}

// TestScrapeAcrossCrash scrapes a System of every scheme before and right
// after a crash. The crash empties the EFIT, so the live-entry gauge must
// read 0, and no *_total series may fall: the counters the sink publishes
// from the components' own counts (the SRAM caches' statistics among
// them) must survive the crash that clears those caches.
func TestScrapeAcrossCrash(t *testing.T) {
	for _, scheme := range append(SchemeNames(), SchemeESDCaram) {
		sys, err := NewSystem(smallConfig(), scheme, WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		var line Line
		for i := uint64(0); i < 3000; i++ {
			line.SetWord(0, i%61)
			sys.Write(i%997, line)
			if i%3 == 0 {
				sys.Read(i % 1200)
			}
		}
		before := scrapeSeries(t, sys)
		sys.Crash()
		after := scrapeSeries(t, sys)
		if strings.HasPrefix(scheme, SchemeESD) && before["esd_efit_entries"] == 0 {
			t.Fatalf("%s: no live EFIT entry before the crash", scheme)
		}
		if got := after["esd_efit_entries"]; got != 0 {
			t.Errorf("%s: esd_efit_entries = %v right after the crash emptied the EFIT", scheme, got)
		}
		if got := after["esd_crashes_total"]; got != before["esd_crashes_total"]+1 {
			t.Errorf("%s: esd_crashes_total = %v after one crash, was %v", scheme, got, before["esd_crashes_total"])
		}
		for name, v := range before {
			if base, _, _ := strings.Cut(name, "{"); strings.HasSuffix(base, "_total") && after[name] < v {
				t.Errorf("%s: %s fell across the crash: %v, was %v", scheme, name, after[name], v)
			}
		}
	}
}

// scrapeSeries renders sys's metrics and returns every sample by series
// name, labels included.
func scrapeSeries(t *testing.T, sys *System) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		ln := sc.Text()
		if strings.HasPrefix(ln, "#") {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		v, err := strconv.ParseFloat(ln[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", ln, err)
		}
		series[ln[:i]] = v
	}
	return series
}
