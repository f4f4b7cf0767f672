// Command esdtop is a live terminal dashboard for a serving esd engine:
// it polls /statusz and /debug/device and renders throughput, per-stage
// latencies, queue depths, dedup effectiveness and a per-bank wear
// heatmap — the view to keep open while hunting a hot line or a dedup
// regression.
//
// Examples:
//
//	esdtop -addr http://127.0.0.1:8080
//	esdtop -addr http://127.0.0.1:8080 -interval 500ms
//	esdtop -addr http://127.0.0.1:8080 -once
//
// Router mode points at a cluster router instead of a node and renders
// the fleet: per-member serving rows, router hop latencies, and the
// fleet-merged device health from /statusz/cluster:
//
//	esdtop -router -addr http://127.0.0.1:9001
//
// The wear heatmap draws one row per shard and one cell per bank, scaled
// to the hottest bank's max wear. A healthy, wear-leveled device shows a
// flat row of low blocks; a hammered line lights up a single cell and
// pushes the skew ratio (max/mean) past the 10x hot-line warning.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/telemetry"
)

func main() {
	if err := cliMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "esdtop:", err)
		os.Exit(1)
	}
}

func cliMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("esdtop", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "base URL of the serving esd engine (or router with -router)")
		interval = fs.Duration("interval", time.Second, "refresh interval")
		once     = fs.Bool("once", false, "render one frame and exit (no screen clearing)")
		router   = fs.Bool("router", false, "fleet mode: -addr is a cluster router; render /statusz/cluster")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 5 * time.Second}

	if *router {
		for {
			st, cs, err := fetchRouter(client, base)
			if err != nil {
				return err
			}
			if !*once {
				fmt.Fprint(stdout, "\x1b[H\x1b[2J")
			}
			renderRouter(stdout, st, cs)
			if *once {
				return nil
			}
			time.Sleep(*interval)
		}
	}

	var prev sample
	for {
		st, dev, err := fetch(client, base)
		if err != nil {
			return err
		}
		cur := newSample(time.Now(), dev)
		if !*once {
			fmt.Fprint(stdout, "\x1b[H\x1b[2J") // cursor home + clear screen
		}
		render(stdout, st, dev, prev, cur)
		if *once {
			return nil
		}
		prev = cur
		time.Sleep(*interval)
	}
}

// fetch pulls both introspection documents. /statusz is required;
// /debug/device is optional (older servers), leaving dev nil.
func fetch(client *http.Client, base string) (*server.StatuszResponse, *server.DeviceResponse, error) {
	var st server.StatuszResponse
	if err := getJSON(client, base+"/statusz", &st); err != nil {
		return nil, nil, err
	}
	var dev server.DeviceResponse
	if err := getJSON(client, base+"/debug/device", &dev); err != nil {
		return &st, nil, nil
	}
	return &st, &dev, nil
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// sample is one poll's cumulative op counters, for client-side rate
// deltas between frames.
type sample struct {
	at            time.Time
	writes, reads uint64
}

func newSample(at time.Time, dev *server.DeviceResponse) sample {
	s := sample{at: at}
	if dev != nil {
		s.writes = dev.Dedup.Writes
		s.reads = dev.Dedup.Reads
	}
	return s
}

// rate computes ops/s between two samples; ok is false without a usable
// previous frame (first poll, counter reset, or no device document).
func rate(prev, cur sample, prevV, curV uint64) (float64, bool) {
	if prev.at.IsZero() || !cur.at.After(prev.at) || curV < prevV {
		return 0, false
	}
	return float64(curV-prevV) / cur.at.Sub(prev.at).Seconds(), true
}

// heatBlocks are the cell glyphs, coldest to hottest.
var heatBlocks = []rune("▁▂▃▄▅▆▇█")

// heatCell maps v on [0, max] to a block glyph.
func heatCell(v, max uint64) rune {
	if max == 0 || v == 0 {
		return heatBlocks[0]
	}
	i := int(uint64(len(heatBlocks)-1) * v / max)
	return heatBlocks[i]
}

// render draws one dashboard frame.
func render(w io.Writer, st *server.StatuszResponse, dev *server.DeviceResponse, prev, cur sample) {
	ready := "ready"
	if !st.Ready {
		ready = "NOT READY"
	}
	fmt.Fprintf(w, "esd · scheme=%s · %d shards · %s · up %s\n",
		st.Scheme, st.Shards, ready, (time.Duration(st.UptimeS * float64(time.Second))).Round(time.Second))

	// Throughput: client-side deltas between frames when available,
	// otherwise the server's rolling-window rates.
	wps, wok := rate(prev, cur, prev.writes, cur.writes)
	rps, rok := rate(prev, cur, prev.reads, cur.reads)
	src := "client delta"
	if (!wok || !rok) && st.Rates != nil {
		wps, rps = st.Rates.WritesPerS, st.Rates.ReadsPerS
		src = fmt.Sprintf("server %gs window", st.Rates.WindowS)
	}
	shedPerS := 0.0
	if st.Rates != nil {
		shedPerS = st.Rates.ShedPerS
	}
	fmt.Fprintf(w, "throughput  %8.0f wr/s  %8.0f rd/s  %6.0f shed/s   (%s)\n", wps, rps, shedPerS, src)

	// Queues: a block per shard scaled to capacity, plus the raw depths.
	var q strings.Builder
	maxDepth := 0
	for _, d := range st.QueueDepths {
		q.WriteRune(heatCell(uint64(d), uint64(st.QueueCap)))
		if d > maxDepth {
			maxDepth = d
		}
	}
	fmt.Fprintf(w, "queues      %s  depth %d/%d  shed=%d slow=%d flight=%d\n",
		q.String(), maxDepth, st.QueueCap, st.Shed, st.SlowRequests, st.FlightRecords)

	renderLatencies(w, "stages", st.Stages)

	if dev == nil {
		fmt.Fprintf(w, "device      (no /debug/device endpoint)\n")
		return
	}

	d := dev.Dedup
	fmt.Fprintf(w, "dedup       hit %5.1f%%  saved %s  verify %d (%.2f%% mismatch)  referH-ovf %d\n",
		d.HitRate*100, bytesHuman(d.BytesSaved), d.CompareReads, d.CollisionRate*100, d.ReferHOverflows)
	hot := ""
	if dev.Wear.Skew > 10 {
		hot = "  ⚠ HOT LINE (skew >10x)"
	}
	fmt.Fprintf(w, "wear        max %d  p99 %d  mean %.2f  skew %.1fx%s\n",
		dev.Wear.Max, dev.Wear.P99, dev.Wear.Mean, dev.Wear.Skew, hot)
	fmt.Fprintf(w, "energy      read %.2f uJ · write %.2f uJ   media %d wr / %d rd on %d lines\n",
		dev.Energy.ReadNJ/1000, dev.Energy.WriteNJ/1000, dev.MediaWrites, dev.MediaReads, dev.LinesTouched)

	// Hybrid DRAM/PCM tier (scheme esd+caram): hit split, migration
	// churn, and buffer occupancy. Absent on plain-PCM media.
	if h := dev.Hybrid; h != nil {
		fmt.Fprintf(w, "hybrid      dram hit %5.1f%%  promo %d / demo %d (wb %d)  wal %d  absorbed %d  resident %d/%d (%d dirty)\n",
			h.HitRate*100, h.Promotions, h.Demotions, h.Writebacks,
			h.WALAppends, h.AbsorbedWrites, h.ResidentLines, h.CapacityLines, h.DirtyLines)
	}

	// Wear heatmap: one row per shard, one cell per bank, scaled to the
	// hottest bank. A single bright cell in a flat row is the hot-line
	// signature.
	var maxBank uint64
	for _, b := range dev.Banks {
		if b.MaxWear > maxBank {
			maxBank = b.MaxWear
		}
	}
	fmt.Fprintf(w, "wear heatmap (cell = bank max wear, %c = %d)\n", heatBlocks[len(heatBlocks)-1], maxBank)
	rows := make(map[int][]rune)
	shards := make([]int, 0)
	for _, b := range dev.Banks {
		if _, ok := rows[b.Shard]; !ok {
			shards = append(shards, b.Shard)
		}
		rows[b.Shard] = append(rows[b.Shard], heatCell(b.MaxWear, maxBank))
	}
	sort.Ints(shards)
	for _, sh := range shards {
		fmt.Fprintf(w, "  shard %-3d %s\n", sh, string(rows[sh]))
	}
}

// bytesHuman renders a byte count with a binary-unit suffix.
func bytesHuman(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// renderLatencies draws a latency section — a node's stages or a
// router's hops — three names to a row, sorted by name.
func renderLatencies(w io.Writer, title string, lat map[string]telemetry.LatencySummary) {
	if len(lat) == 0 {
		return
	}
	names := make([]string, 0, len(lat))
	for name := range lat {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (p50/p99 ns)\n", title)
	for i, name := range names {
		fmt.Fprintf(w, "  %-11s %7.0f/%-9.0f", name, lat[name].P50Ns, lat[name].P99Ns)
		if i%3 == 2 || i == len(names)-1 {
			fmt.Fprintln(w)
		}
	}
}
