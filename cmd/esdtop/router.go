package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/esdsim/esd/internal/cluster"
)

// Router mode: instead of one node's /statusz, esdtop -router polls a
// cluster router's /statusz (ring + hop latencies) and /statusz/cluster
// (the fleet-aggregated member scrape) and renders the whole fleet on
// one screen — per-member serving rows plus the merged device view.

// fetchRouter pulls both router documents. /statusz is required;
// /statusz/cluster degrades to nil on older routers.
func fetchRouter(client *http.Client, base string) (*cluster.Status, *cluster.ClusterStatus, error) {
	var st cluster.Status
	if err := getJSON(client, base+"/statusz", &st); err != nil {
		return nil, nil, err
	}
	var cs cluster.ClusterStatus
	if err := getJSON(client, base+"/statusz/cluster", &cs); err != nil {
		return &st, nil, nil
	}
	return &st, &cs, nil
}

// renderRouter draws one fleet dashboard frame.
func renderRouter(w io.Writer, st *cluster.Status, cs *cluster.ClusterStatus) {
	fmt.Fprintf(w, "esd cluster · epoch %d · %d nodes (%d healthy) · replication %d · %d flight records · up %s\n",
		st.Epoch, len(st.Nodes), st.Healthy, st.Replication, st.FlightRecords,
		(time.Duration(st.UptimeS * float64(time.Second))).Round(time.Second))
	fmt.Fprintf(w, "routing     retries=%d failovers=%d hedges=%d read-repairs=%d",
		st.Retries, st.Failovers, st.Hedges, st.ReadRepairs)
	if st.Resharding {
		fmt.Fprint(w, "  ⟳ RESHARDING")
	}
	fmt.Fprintln(w)

	// Per-hop latency section, the router-side sibling of a node's stages.
	renderLatencies(w, "hops", st.Hops)

	if cs == nil {
		fmt.Fprintf(w, "fleet       (no /statusz/cluster endpoint)\n")
		return
	}

	fmt.Fprintf(w, "fleet       %d/%d members reachable · %d shards · %8.0f wr/s %8.0f rd/s · slow=%d shed=%d\n",
		cs.Reachable, len(cs.Members), cs.Shards, cs.WritesPerS, cs.ReadsPerS, cs.SlowRequests, cs.Shed)

	// Member table: the router's health view next to each member's own
	// serving counters.
	fmt.Fprintf(w, "members     %-12s %-9s %6s %9s %9s %6s %6s\n",
		"NAME", "STATE", "SHARDS", "WR/S", "RD/S", "SLOW", "SHED")
	for _, m := range cs.Members {
		state := "up"
		if !m.Healthy {
			state = "DOWN"
		}
		if !m.Reachable {
			fmt.Fprintf(w, "            %-12s %-9s %s\n", m.Name, state+"?", m.Error)
			continue
		}
		ms := m.Status
		var wps, rps float64
		if ms.Rates != nil {
			wps, rps = ms.Rates.WritesPerS, ms.Rates.ReadsPerS
		}
		fmt.Fprintf(w, "            %-12s %-9s %6d %9.0f %9.0f %6d %6d\n",
			m.Name, state, ms.Shards, wps, rps, ms.SlowRequests, ms.Shed)
	}

	if cs.Device == nil {
		return
	}
	d := cs.Device
	fmt.Fprintf(w, "dedup       hit %5.1f%%  saved %s   (fleet-merged)\n", d.DedupHitRate*100, bytesHuman(d.BytesSaved))
	hot := ""
	if d.WearSkew > 10 {
		hot = "  ⚠ HOT LINE (skew >10x)"
	}
	fmt.Fprintf(w, "wear        max %d  p99 %d  mean %.2f  skew %.1fx%s\n",
		d.MaxWear, d.P99Wear, d.MeanWear, d.WearSkew, hot)
	fmt.Fprintf(w, "energy      read %.2f uJ · write %.2f uJ   media %d wr / %d rd\n",
		d.EnergyReadNJ/1000, d.EnergyWriteNJ/1000, d.MediaWrites, d.MediaReads)

	// Fleet wear histogram as a sparkline: merged buckets across every
	// member's shards.
	if len(cs.WearHist) > 0 {
		var maxCount uint64
		for _, b := range cs.WearHist {
			if b.Lines > maxCount {
				maxCount = b.Lines
			}
		}
		var spark strings.Builder
		for _, b := range cs.WearHist {
			spark.WriteRune(heatCell(b.Lines, maxCount))
		}
		fmt.Fprintf(w, "wear hist   %s  (%d buckets, peak %d lines)\n", spark.String(), len(cs.WearHist), maxCount)
	}
}
