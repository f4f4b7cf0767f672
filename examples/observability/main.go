// Observability: run a mixed workload on the ESD scheme with telemetry
// turned on, then look at the run from three angles — the sampled event
// trace, the Prometheus exposition, and a live scrape of the metrics
// endpoint. This is the programmatic mirror of
//
//	esdsim -scheme esd -app leela -metrics-addr :9090 -trace-out events.jsonl
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"

	esd "github.com/esdsim/esd"
)

func main() {
	cfg := esd.DefaultConfig()
	cfg.PCM.CapacityBytes = 1 << 28

	// Telemetry is opt-in per System: WithEventTrace renders the System's
	// records into a JSONL trace (and implies the metrics registry),
	// WithTraceSampling keeps the write and read records to 1-in-8.
	var traceBuf bytes.Buffer
	sys, err := esd.NewSystem(cfg, esd.SchemeESD,
		esd.WithEventTrace(&traceBuf),
		esd.WithTraceSampling(8),
	)
	if err != nil {
		log.Fatal(err)
	}

	sys.SetWarmup(2000)
	stream, err := esd.MixStream(1, 12000, "leela", "dedup", "x264")
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run(stream)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.CloseTrace(); err != nil {
		log.Fatal(err)
	}
	st := res.Scheme
	fmt.Printf("ran %d requests on %s: %d/%d writes deduplicated\n",
		res.Requests, sys.SchemeName(), st.DedupWrites, st.Writes)

	// 1. The event trace: every rare event (EFIT evictions, counter
	// overflows, run markers) plus a 1-in-8 sample of writes and reads,
	// each a record like the flight recorder's, on the simulated clock.
	recs, err := esd.ReadTraceEvents(&traceBuf)
	if err != nil {
		log.Fatal(err)
	}
	byKind := map[string]int{}
	for _, r := range recs {
		byKind[r.Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for kind := range byKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	fmt.Printf("\nevent trace: %d records\n", len(recs))
	for _, kind := range kinds {
		fmt.Printf("  %-12s %d\n", kind, byKind[kind])
	}
	for _, r := range recs {
		if r.Kind == "write" {
			fmt.Printf("first sampled write: decision=%s addr=%#x lat=%gns\n",
				r.Decision, r.Addr, r.LatNs)
			break
		}
	}

	// 2. The Prometheus exposition, rendered directly without a server.
	var prom strings.Builder
	if err := sys.WriteMetrics(&prom); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nselected metrics:")
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "esd_writes_total") ||
			strings.HasPrefix(line, "esd_dedup_writes_total") ||
			strings.HasPrefix(line, "esd_write_decision_total") ||
			strings.HasPrefix(line, "esd_device_writes_total") {
			fmt.Println("  " + line)
		}
	}

	// 3. The live endpoint: the same registry served over HTTP, as a
	// Prometheus scraper (or a human with curl) would see it.
	srv, err := sys.ServeMetrics("127.0.0.1:0", false)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlive scrape of %s/metrics: %d bytes, status %s\n",
		srv.URL(), len(body), resp.Status)
}
