// Flight recorder: diagnose a degraded NVM bank from the always-on
// flight recorder alone — no profiler, no event trace, no server.
//
// The config injects a fault into one PCM bank (every media access it
// services takes an extra 2 µs). The workload has no idea; it just sees
// a heavy write-latency tail. The flight recorder holds the per-stage
// latency decomposition of the last N requests, so grouping its records
// by bank turns "some writes are slow" into "bank 5 is slow, and the
// time is in the media stage" — the same procedure README's "Debugging
// a slow request" walks through against a live esdserve via
// /debug/flightrecorder.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"

	esd "github.com/esdsim/esd"
)

func main() {
	cfg := esd.DefaultConfig()
	cfg.PCM.CapacityBytes = 1 << 28
	// Fault injection: bank 5 pays +2 µs on every media read and write
	// (a stuck-at-slow bank, e.g. one wearing out or thermally throttled).
	cfg.PCM.FaultBank = 5
	cfg.PCM.FaultExtraLatency = 2 * esd.Microsecond

	sys, err := esd.NewSystem(cfg, esd.SchemeESD,
		esd.WithMetrics(),
		esd.WithFlightRecorder(4096),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Unique-content writes over a small working set: every write misses
	// the fingerprint index and pays the full media path.
	rng := rand.New(rand.NewSource(42))
	var line esd.Line
	const requests = 4096
	for i := 0; i < requests; i++ {
		rng.Read(line[:])
		sys.Write(uint64(rng.Intn(1<<14)), line)
	}

	recs := sys.FlightRecords()
	fmt.Printf("ran %d writes; flight recorder holds the last %d\n", requests, len(recs))

	// The diagnosis: bucket the recorded media-stage latency by bank. The
	// record's Phys field is the physical line the write landed on — banks
	// interleave by physical address (phys mod banks), and the logical
	// address says nothing about the bank once the allocator has remapped.
	banks := cfg.PCM.Banks
	cnt := make([]int, banks)
	media := make([]float64, banks)
	total := make([]float64, banks)
	for _, r := range recs {
		if r.Kind != "write" {
			continue
		}
		b := int(r.Phys % uint64(banks))
		cnt[b]++
		if r.StagesNs != nil {
			media[b] += r.StagesNs.Media
		}
		total[b] += r.LatNs
	}
	fmt.Printf("\n%-6s %8s %14s %14s\n", "bank", "writes", "mean media", "mean total")
	worst, worstMedia := 0, 0.0
	for b := 0; b < banks; b++ {
		if cnt[b] == 0 {
			continue
		}
		m := media[b] / float64(cnt[b])
		fmt.Printf("%-6d %8d %12.0fns %12.0fns\n", b, cnt[b], m, total[b]/float64(cnt[b]))
		if m > worstMedia {
			worst, worstMedia = b, m
		}
	}
	fmt.Printf("\ndiagnosis: bank %d is the outlier (injected fault was bank %d)\n",
		worst, cfg.PCM.FaultBank)
	if worst != cfg.PCM.FaultBank {
		log.Fatal("flightrecorder example: diagnosis missed the injected fault")
	}

	// One slow record in full, as /debug/flightrecorder would serve it:
	// the media stage carries the injected delay, the other stages are
	// unremarkable — the smoking gun for a device-side problem.
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Kind == "write" && int(r.Phys%uint64(banks)) == worst {
			fmt.Println("\na slow request, as the dump shows it:")
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(r); err != nil {
				log.Fatal(err)
			}
			break
		}
	}
}
