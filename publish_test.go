package esd

import (
	"bufio"
	"bytes"
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
