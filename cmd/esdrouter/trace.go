package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/telemetry"
)

// esdtrace: the cross-node timeline stitcher. One fleet trace ID appears
// in the router's flight recorder (router records, on the wall clock) and
// in each touched node's per-shard flight recorders (engine records, on
// the simulated clock); every /debug/flightrecorder serves the same
// telemetry.Record. This subcommand pulls every recorder the router knows
// about, filters for one ID, and prints the request's full path:
//
//	esdrouter esdtrace -router http://localhost:9001 -trace 0x5f3a9c01
//
// The trace ID comes from a traced client response, a router or node
// slow-request log line, or a /debug/flightrecorder dump. Flight
// recorders are bounded rings: a trace older than the last ~1k routed
// requests may already be overwritten.
func runTrace(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("esdtrace", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		routerURL = fs.String("router", "http://localhost:9001", "running router's HTTP address")
		traceFlag = fs.String("trace", "", "trace ID to stitch (decimal or 0x hex)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag == "" {
		return fmt.Errorf("esdtrace needs -trace <id> (from a traced response or a slow-request log line)")
	}
	trace, err := strconv.ParseUint(strings.TrimSpace(*traceFlag), 0, 64)
	if err != nil {
		return fmt.Errorf("bad -trace %q: %w", *traceFlag, err)
	}
	if trace == 0 {
		return fmt.Errorf("trace 0 is the untraced marker; nothing to stitch")
	}

	base := strings.TrimRight(*routerURL, "/")
	hc := &http.Client{Timeout: 5 * time.Second}

	// The router's own recorder: wall-clock hop records.
	mine, err := traceRecords(hc, base, trace)
	if err != nil {
		return fmt.Errorf("router flight recorder: %w", err)
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].AtNs < mine[j].AtNs })

	// The member list, from the ring section.
	var st cluster.Status
	if err := traceGet(hc, base+"/statusz", &st); err != nil {
		return fmt.Errorf("router statusz: %w", err)
	}

	fmt.Fprintf(stdout, "esdtrace: trace %#x via %s\n", trace, base)
	if len(mine) == 0 {
		fmt.Fprintf(stdout, "router: no hop events (trace unknown, untraced, or already overwritten in the ring)\n")
	} else {
		t0 := mine[0].AtNs
		fmt.Fprintf(stdout, "router: %d hop events (wall clock, t0 = %s)\n",
			len(mine), time.Unix(0, int64(t0)).Format("15:04:05.000000"))
		for _, h := range mine {
			loc := ""
			if h.Node != "" {
				loc = " node=" + h.Node
			}
			att := ""
			if h.Attempt > 0 {
				att = fmt.Sprintf(" attempt=%d", h.Attempt)
			}
			fmt.Fprintf(stdout, "  %+10.3fms  %-11s %-11s addr=%-8d%s%s  lat=%.3fms  %s\n",
				(h.AtNs-t0)/1e6, h.Kind, h.Op, h.Addr, loc, att,
				h.LatNs/1e6, server.StatusText(byte(h.Status)))
		}
	}

	// Every member's per-shard flight recorder: the node half of the path.
	touched, reachable := 0, 0
	for _, n := range st.Nodes {
		if n.HTTPAddr == "" {
			fmt.Fprintf(stdout, "node %s: no HTTP address; cannot scrape\n", n.Name)
			continue
		}
		hit, err := traceRecords(hc, "http://"+n.HTTPAddr, trace)
		if err != nil {
			fmt.Fprintf(stdout, "node %s: %v\n", n.Name, err)
			continue
		}
		reachable++
		if len(hit) == 0 {
			continue
		}
		touched++
		fmt.Fprintf(stdout, "node %s: %d engine records (simulated time)\n", n.Name, len(hit))
		for _, rec := range hit {
			outcome := ""
			switch {
			case rec.Kind == "write" && rec.Dedup:
				outcome = "  dedup"
			case rec.Kind == "write":
				outcome = fmt.Sprintf("  phys=%d", rec.Phys)
			case rec.Hit:
				outcome = "  hit"
			default:
				outcome = "  miss"
			}
			fmt.Fprintf(stdout, "  seq=%-8d %-6s shard=%d addr=%-8d%s  lat=%.0fns%s\n",
				rec.Seq, rec.Kind, rec.Shard, rec.Addr, outcome, rec.LatNs, stageSummary(rec.StagesNs))
		}
	}
	fmt.Fprintf(stdout, "esdtrace: %d router hops, trace seen on %d of %d reachable nodes\n",
		len(mine), touched, reachable)
	return nil
}

// stageSummary renders a write's nonzero stages inline, in the record's
// stage-name order.
func stageSummary(s *telemetry.StageNs) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("  stages:")
	for _, st := range []struct {
		stage telemetry.Stage
		ns    float64
	}{
		{telemetry.StageAMT, s.AMT}, {telemetry.StageEFIT, s.EFIT}, {telemetry.StageEncrypt, s.Encrypt},
		{telemetry.StageFingerprint, s.Fingerprint}, {telemetry.StageFPNVMM, s.FPNVMM},
		{telemetry.StageMedia, s.Media}, {telemetry.StageNVMVerify, s.NVMVerify}, {telemetry.StageQueue, s.Queue},
	} {
		if st.ns != 0 {
			fmt.Fprintf(&b, " %s=%.0fns", st.stage, st.ns)
		}
	}
	return b.String()
}

// traceRecords fetches the flight recorder served at base and keeps the
// records of one trace.
func traceRecords(hc *http.Client, base string, trace uint64) ([]telemetry.Record, error) {
	var recs []telemetry.Record
	if err := traceGet(hc, base+"/debug/flightrecorder", &recs); err != nil {
		return nil, err
	}
	mine := recs[:0]
	for _, rec := range recs {
		if rec.Trace == trace {
			mine = append(mine, rec)
		}
	}
	return mine, nil
}

// traceGet fetches url and decodes the JSON body into out.
func traceGet(hc *http.Client, url string, out interface{}) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
