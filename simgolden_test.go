package esd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/esdsim/esd/internal/experiments"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/trace"
)

var updateSimGolden = flag.Bool("update", false, "rewrite testdata/simulation.golden")

// simGoldenPath holds one JSON line per row of TestSimulationGolden: the
// row's name, its run summary and its device-health document.
var simGoldenPath = filepath.Join("testdata", "simulation.golden")

// Row sizes: the scalar rows warm up before a measured window; the
// sharded rows replay every record. The paper-scale rows run at the
// figures' scale (make figures).
const (
	simGoldenSeed   = 1
	simGoldenWarmup = 5000
	simGoldenN      = 20000
	simGoldenBatch  = 64
	paperWarmup     = 100000
	paperN          = 150000
)

// simGoldenRow is one pinned configuration.
type simGoldenRow struct {
	scheme, app string
	shards      int // 0 runs a System; otherwise a ShardedSystem
	fpScale     int // experiments.ScaleFPCaches factor (1 = paper-sized)
	batch       bool
	paper       bool // a System row of paperWarmup + paperN requests
}

func (r simGoldenRow) name() string {
	mode := "scalar"
	if r.shards > 0 {
		mode = fmt.Sprintf("shards%d", r.shards)
	}
	if r.batch {
		mode += "-batch64"
	}
	if r.paper {
		mode += "-paper"
	}
	return fmt.Sprintf("%s/%s/%s/fp%d", r.scheme, r.app, mode, r.fpScale)
}

// simGoldenRows: the paper's four schemes and esd+caram × namd, lbm,
// dedup, gcc × {scalar, 4 shards} × {paper-sized fingerprint caches,
// divided by 64}, plus 64-op batches on namd over 4 shards — the arrival
// grouping namd-batch64 serves, which changes simulated time by design —
// plus six System rows at the paper's scale, where the order of
// same-instant device accesses shows in the figures' tables.
func simGoldenRows() []simGoldenRow {
	var rows []simGoldenRow
	for _, scheme := range append(SchemeNames(), SchemeESDCaram) {
		for _, app := range []string{"namd", "lbm", "dedup", "gcc"} {
			for _, shards := range []int{0, 4} {
				for _, scale := range []int{1, 64} {
					rows = append(rows, simGoldenRow{scheme: scheme, app: app, shards: shards, fpScale: scale})
				}
			}
		}
		rows = append(rows, simGoldenRow{scheme: scheme, app: "namd", shards: 4, fpScale: 1, batch: true})
	}
	for _, r := range []struct{ scheme, app string }{
		{SchemeESD, "cactuBSSN"}, {SchemeESD, "bodytrack"},
		{SchemeSHA1, "cactuBSSN"}, {SchemeSHA1, "lbm"},
		{SchemeESDCaram, "lbm"}, {SchemeESDCaram, "namd"},
	} {
		rows = append(rows, simGoldenRow{scheme: r.scheme, app: r.app, fpScale: 1, paper: true})
	}
	return rows
}

// goldenHist is a latency histogram as the golden file keeps it.
// Times are in simulated picoseconds.
type goldenHist struct {
	Count                          uint64
	Sum                            float64
	Min, Max, Mean, P50, P99, P999 Time
}

func histOf(h *stats.Histogram) goldenHist {
	return goldenHist{
		Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
		P50: h.Percentile(0.5), P99: h.Percentile(0.99), P999: h.Percentile(0.999),
	}
}

// run executes the row and returns its golden line.
func (r simGoldenRow) run() ([]byte, error) {
	cfg := experiments.ScaleFPCaches(DefaultConfig(), r.fpScale)
	cfg.Seed = simGoldenSeed
	var summary any
	var device server.DeviceResponse
	if r.shards == 0 {
		sys, err := NewSystem(cfg, r.scheme)
		if err != nil {
			return nil, err
		}
		warmup, n := simGoldenWarmup, simGoldenN
		if r.paper {
			warmup, n = paperWarmup, paperN
		}
		sys.SetWarmup(warmup)
		res, err := sys.RunWorkload(r.app, simGoldenSeed, warmup+n)
		if err != nil {
			return nil, err
		}
		// The outer fields shadow the embedded histograms, whose counts
		// JSON cannot see.
		summary = struct {
			*RunResult
			WriteHist, ReadHist goldenHist
		}{res, histOf(&res.WriteHist), histOf(&res.ReadHist)}
		device = server.DeviceFromHealth(r.scheme, []DeviceHealthSnapshot{sys.DeviceHealth()}, sys.Stats())
	} else {
		sys, err := NewShardedSystem(cfg, r.scheme, WithShards(r.shards))
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		stream, err := WorkloadStream(r.app, simGoldenSeed, simGoldenWarmup+simGoldenN)
		if err != nil {
			return nil, err
		}
		var sum ShardSummary
		var counts [2]uint64 // reads, writes
		if r.batch {
			if err := runBatched(sys, stream, &counts); err != nil {
				return nil, err
			}
			sum, err = sys.Summary()
		} else {
			var res *ShardReplayResult
			res, err = sys.Run(stream)
			if res != nil {
				sum, counts = res.Summary, [2]uint64{res.Reads, res.Writes}
			}
		}
		if err != nil {
			return nil, err
		}
		summary = struct {
			ShardSummary
			Reads, Writes       uint64
			WriteHist, ReadHist goldenHist
		}{sum, counts[0], counts[1], histOf(&sum.WriteHist), histOf(&sum.ReadHist)}
		device = server.DeviceFromHealth(r.scheme, sys.DeviceHealths(), sys.LiveStats())
	}
	return json.Marshal(struct {
		Row     string                `json:"row"`
		Summary any                   `json:"summary"`
		Device  server.DeviceResponse `json:"device"`
	}{r.name(), summary, device})
}

// runBatched sends the stream as ShardedSystem.WriteBatch and ReadBatch
// calls: each run of consecutive same-kind records, cut every
// simGoldenBatch ops, is one call.
func runBatched(sys *ShardedSystem, stream Stream, counts *[2]uint64) error {
	var wops []WriteBatchOp
	var rops []ReadBatchOp
	flush := func() error {
		if len(wops) > 0 {
			if err := sys.WriteBatch(wops); err != nil {
				return err
			}
			counts[1] += uint64(len(wops))
			wops = wops[:0]
		}
		if len(rops) > 0 {
			if err := sys.ReadBatch(rops); err != nil {
				return err
			}
			counts[0] += uint64(len(rops))
			rops = rops[:0]
		}
		return nil
	}
	for {
		rec, err := stream.Next()
		if errors.Is(err, io.EOF) {
			return flush()
		}
		if err != nil {
			return err
		}
		isWrite := rec.Op == trace.OpWrite
		if (isWrite && len(rops) > 0) || (!isWrite && len(wops) > 0) ||
			len(wops) == simGoldenBatch || len(rops) == simGoldenBatch {
			if err := flush(); err != nil {
				return err
			}
		}
		if isWrite {
			wops = append(wops, WriteBatchOp{Addr: rec.Addr, Line: rec.Data})
		} else {
			rops = append(rops, ReadBatchOp{Addr: rec.Addr})
		}
	}
}

// TestSimulationGolden pins simulated time: every row's summary and
// device-health document must match testdata/simulation.golden. Integers
// compare exactly; floats compare exactly on amd64 and to a relative
// 1e-12 elsewhere, where Go may fuse multiply-adds. A change that moves
// a simulated number on purpose regenerates the file with -update and
// says which number moved and why.
func TestSimulationGolden(t *testing.T) {
	rows := simGoldenRows()
	want := map[string][]byte{}
	if !*updateSimGolden {
		var err error
		if want, err = readSimGolden(); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[string][]byte{}
	t.Run("rows", func(t *testing.T) {
		for _, row := range rows {
			t.Run(row.name(), func(t *testing.T) {
				t.Parallel()
				line, err := row.run()
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				got[row.name()] = line
				mu.Unlock()
				if *updateSimGolden {
					return
				}
				w, ok := want[row.name()]
				if !ok {
					t.Fatalf("no golden line (run with -update)")
				}
				if diffs := diffGoldenJSON(w, line); len(diffs) > 0 {
					t.Errorf("%d simulated values moved, first: %s", len(diffs), strings.Join(diffs[:min(len(diffs), 5)], "; "))
				}
			})
		}
	})
	if *updateSimGolden && !t.Failed() {
		var buf bytes.Buffer
		for _, row := range rows {
			buf.Write(got[row.name()])
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(simGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) > len(rows) && !*updateSimGolden {
		t.Errorf("golden file has %d rows, the test runs %d", len(want), len(rows))
	}
}

func readSimGolden() (map[string][]byte, error) {
	f, err := os.Open(simGoldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var head struct{ Row string }
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			return nil, err
		}
		out[head.Row] = append([]byte(nil), sc.Bytes()...)
	}
	return out, sc.Err()
}

// floatTol is the relative tolerance for floats that differ in text.
func floatTol() float64 {
	if runtime.GOARCH == "amd64" {
		return 0
	}
	return 1e-12
}

// diffGoldenJSON lists the paths at which got departs from want.
func diffGoldenJSON(want, got []byte) []string {
	decode := func(b []byte) (any, error) {
		d := json.NewDecoder(bytes.NewReader(b))
		d.UseNumber()
		var v any
		return v, d.Decode(&v)
	}
	w, err := decode(want)
	if err != nil {
		return []string{"golden: " + err.Error()}
	}
	g, err := decode(got)
	if err != nil {
		return []string{"run: " + err.Error()}
	}
	var diffs []string
	var walk func(path string, w, g any)
	walk = func(path string, w, g any) {
		switch wv := w.(type) {
		case map[string]any:
			gv, ok := g.(map[string]any)
			if !ok {
				diffs = append(diffs, path+": shape changed")
				return
			}
			keys := make([]string, 0, len(wv))
			for k := range wv {
				keys = append(keys, k)
			}
			for k := range gv {
				if _, ok := wv[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(path+"."+k, wv[k], gv[k])
			}
		case []any:
			gv, ok := g.([]any)
			if !ok || len(gv) != len(wv) {
				diffs = append(diffs, path+": length changed")
				return
			}
			for i := range wv {
				walk(fmt.Sprintf("%s[%d]", path, i), wv[i], gv[i])
			}
		case json.Number:
			gv, ok := g.(json.Number)
			if !ok {
				diffs = append(diffs, path+": shape changed")
				return
			}
			if wv == gv {
				return
			}
			_, werr := wv.Int64()
			_, gerr := gv.Int64()
			wf, _ := wv.Float64()
			gf, _ := gv.Float64()
			if (werr != nil || gerr != nil) && math.Abs(wf-gf) <= floatTol()*math.Max(math.Abs(wf), math.Abs(gf)) {
				return
			}
			diffs = append(diffs, fmt.Sprintf("%s: %s -> %s", path, wv, gv))
		default:
			if fmt.Sprint(w) != fmt.Sprint(g) {
				diffs = append(diffs, fmt.Sprintf("%s: %v -> %v", path, w, g))
			}
		}
	}
	walk("", w, g)
	return diffs
}
