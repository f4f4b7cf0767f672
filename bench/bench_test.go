package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/xrand"
)

// spinEnv makes the test binary a process that keeps two threads busy, for
// TestFreezeStopsEveryThread.
const spinEnv = "ESDBENCH_TEST_SPIN"

// TestMain lets the test binary serve as the echo reference's child
// process, as the benchmark binary does, and as a spinning process.
func TestMain(m *testing.M) {
	if pid := os.Getenv(echoChildEnv); pid != "" {
		os.Exit(echoChild(pid, os.Stdin, os.Stdout))
	}
	if os.Getenv(spinEnv) != "" {
		go func() {
			for {
			}
		}()
		for {
		}
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	for _, tc := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.values, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMeanMedianAndPercentile(t *testing.T) {
	if got := mean([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("mean = %v, want 2.5", got)
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean of no values should be NaN")
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.99, 49.6}, {1, 50}} {
		if got := percentile(s, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func opsDigest(ops []op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		_, _ = h.Write([]byte{byte(o.addr), byte(o.addr >> 8), byte(o.addr >> 16), byte(o.addr >> 24),
			byte(o.content), byte(o.content >> 8), byte(o.content >> 16), byte(o.content >> 24)})
	}
	return h.Sum64()
}

func TestStreamIsDeterministicPerSeed(t *testing.T) {
	s, _ := specByName("lbm-scalar")
	digestOf := func(seed uint64) uint64 {
		st, err := newStream(s, seed, 5000)
		if err != nil {
			t.Fatal(err)
		}
		return opsDigest(st.ops)
	}
	if a, b := digestOf(1), digestOf(1); a != b {
		t.Fatalf("seed 1 gave two different streams: %x vs %x", a, b)
	}
	if digestOf(1) == digestOf(2) {
		t.Fatal("seeds 1 and 2 gave the same stream")
	}
}

func TestEachConnectionReachesEveryShardOfBothNodes(t *testing.T) {
	// The deployment's ring: two nodes named as bootStack names them.
	ring, err := cluster.NewRing([]cluster.Node{{Name: "n0", TCPAddr: "a"}, {Name: "n1", TCPAddr: "b"}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		st, err := newStream(s, 1, 20000)
		if err != nil {
			t.Fatal(err)
		}
		seen := [2]map[string]bool{{}, {}}
		for _, o := range st.ops {
			a := uint64(o.addr)
			seen[connOf(a)][ring.Owner(a).Name+"/"+string(rune('0'+a%shardsPerNode))] = true
		}
		for c, set := range seen {
			if len(set) != 2*shardsPerNode {
				t.Errorf("%s: connection %d reaches %d of %d (node, shard) pairs: %v", s.name, c, len(set), 2*shardsPerNode, set)
			}
		}
	}
}

func TestFramesKeepPerAddressOrder(t *testing.T) {
	rng := xrand.New(7)
	ops := make([]op, 20000)
	for i := range ops {
		ops[i].addr = uint32(rng.Intn(64)) // a small footprint forces conflicts
		ops[i].content = readOp
		if rng.Bool(0.5) {
			ops[i].content = uint32(i)
		}
	}
	history := func(seq []op) map[uint32][]uint32 {
		h := map[uint32][]uint32{}
		for _, o := range seq {
			h[o.addr] = append(h[o.addr], o.content)
		}
		return h
	}
	var p plan
	p.appendSegment(ops, 64)
	for _, f := range p.frames {
		if f.n < 1 || f.n > 64 {
			t.Fatalf("frame of %d ops", f.n)
		}
		for _, o := range p.ops[f.start : f.start+f.n] {
			if o.isWrite() != f.write {
				t.Fatal("frame mixes reads and writes")
			}
		}
	}
	want, got := history(ops), history(p.ops)
	for a, seq := range want {
		if len(got[a]) != len(seq) {
			t.Fatalf("address %d: %d ops, want %d", a, len(got[a]), len(seq))
		}
		for i := range seq {
			if got[a][i] != seq[i] {
				t.Fatalf("address %d: op %d reordered", a, i)
			}
		}
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json declares,
// end-to-end and per-layer.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics fails t unless got holds exactly the metrics of want, in
// their units.
func checkMetrics(t *testing.T, what string, got map[string]metric, want ...map[string]string) {
	t.Helper()
	all := map[string]string{}
	for _, w := range want {
		for name, unit := range w {
			all[name] = unit
		}
	}
	for name, unit := range all {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := all[name]; !ok {
			t.Errorf("%s: metric %s is not expected", what, name)
		}
	}
}

type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func smokeConfig(s spec) runConfig {
	return runConfig{specs: []spec{s}, seed: 1, trace: 1, fixedOps: 2000}
}

func runSmoke(t *testing.T, cfg runConfig) (int, lastLine) {
	t.Helper()
	var out bytes.Buffer
	code := run(cfg, &out, io.Discard)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return code, res
}

// TestSmokeEveryWorkloadEmitsTheDeclaredMetrics runs both passes: the result
// line must hold exactly the per-layer metrics, the result file every
// metric.
func TestSmokeEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			cfg := smokeConfig(s)
			cfg.out = filepath.Join(t.TempDir(), "result.json")
			code, res := runSmoke(t, cfg)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 2000 {
				t.Fatalf("exit %d, correct %v, %d of %d ops failed", code, res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, "result line", res.Metrics, layer)
			b, err := os.ReadFile(cfg.out)
			if err != nil {
				t.Fatal(err)
			}
			var rf resultFile
			if err := json.Unmarshal(b, &rf); err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "result file", rf.Workloads[s.name].Metrics, e2e, layer)
		})
	}
}

// TestCorruptShadowFailsTheRun runs the end-to-end pass only, so it also
// checks that pass's result line holds exactly the end-to-end metrics.
func TestCorruptShadowFailsTheRun(t *testing.T) {
	e2e, _ := benchmarkMetrics(t)
	s, _ := specByName("lbm-scalar")
	cfg := smokeConfig(s)
	cfg.trace = 0
	cfg.corruptShadow = true
	code, res := runSmoke(t, cfg)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("a corrupted shadow went unnoticed: exit %d, correct %v, failed %d", code, res.Correct, res.Failed)
	}
	checkMetrics(t, "result line", res.Metrics, e2e)
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	lower := rule{name: "write_mean_us", better: "lower", bound: 0.1, hasBound: true}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		r              rule
		want           string
	}{
		{"faster", base, shift(-10), lower, "improved"},
		{"slower beyond bound", base, shift(15), lower, "regressed"},
		{"slower within bound", base, shift(3), lower, "unchanged"},
		{"spread wider than bound", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, shift(0), lower, "unresolved"},
		{"higher is better", base, shift(10), rule{name: "ops_per_s", better: "higher", bound: 0.1, hasBound: true}, "improved"},
		{"per-layer loss", base, shift(10), rule{name: "shard.self_write_ns", better: "lower"}, "regressed"},
	} {
		if got := judge(tc.parent, tc.change, tc.r).result; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareNeedsTenPairs(t *testing.T) {
	few := make([]resultFile, 3)
	if code := compareResults(few, few, nil, io.Discard, io.Discard); code != 2 {
		t.Fatalf("compare of 3 pairs exited %d, want 2", code)
	}
}

// TestFreezeStopsEveryThread checks that a frozen process, spinning on two
// threads, uses no CPU time until it is thawed.
func TestFreezeStopsEveryThread(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the benchmark freezes itself only on Linux")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), spinEnv+"=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	pid := cmd.Process.Pid
	cpuTicks := func() int { // utime + stime, fields 14 and 15 of stat
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			t.Fatal(err)
		}
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		u, _ := strconv.Atoi(f[11])
		s, _ := strconv.Atoi(f[12])
		return u + s
	}
	time.Sleep(50 * time.Millisecond)
	if err := freeze(pid); err != nil {
		t.Fatal(err)
	}
	before := cpuTicks()
	time.Sleep(100 * time.Millisecond)
	after := cpuTicks()
	if err := thaw(pid); err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("the frozen process used %d clock ticks", after-before)
	}
	time.Sleep(100 * time.Millisecond)
	if cpuTicks() == after {
		t.Fatal("the thawed process did not run")
	}
}

func TestCompareRefusesMixedWindowLengths(t *testing.T) {
	parents, changes := make([]resultFile, minPairs), make([]resultFile, minPairs)
	for i := range parents {
		parents[i].Stamp.Seconds, changes[i].Stamp.Seconds = 20, 20
	}
	if code := compareResults(parents, changes, nil, io.Discard, io.Discard); code != 0 {
		t.Fatalf("compare of equal windows exited %d, want 0", code)
	}
	changes[3].Stamp.Seconds = 10
	if code := compareResults(parents, changes, nil, io.Discard, io.Discard); code != 2 {
		t.Fatalf("compare of 20 s against 10 s windows exited %d, want 2", code)
	}
}
