// Command bench is the repository's end-to-end benchmark. In one process it
// boots the deployed serving stack (two 4-shard nodes behind an R=2 router
// and the router's TCP front), drives it over loopback TCP from two
// closed-loop client connections, and checks every read against a shadow
// of the writes. A second, traced pass sends the same ops into each
// layer's entry point in turn (the per-layer cost ladder).
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out result.json] [-spans spans.jsonl]
//	bash bench/run.sh compare parent1.json ... -- change1.json ...
//
// Every metric is printed as "workload metric value unit"; the last line is
// a JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (-trace 0) or the per-layer ones (-trace 1). The exit
// status is 1 when any read returned wrong data or the run failed.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	if pid := os.Getenv(echoChildEnv); pid != "" {
		os.Exit(echoChild(pid, os.Stdin, os.Stdout))
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	return run(cfg, stdout, stderr)
}

// Fixed run shape: set-ups per run (setup_s is their median) and the ops
// each ladder row measures (seven rows of scalar ops take about 15 s).
const (
	setups    = 3
	ladderOps = 50_000
)

type runConfig struct {
	specs   []spec
	seed    uint64
	seconds float64
	// trace 0 runs the end-to-end pass and reports its metrics; trace 1
	// adds the traced pass and reports the per-layer metrics.
	trace     int
	out       string
	spansPath string

	fixedOps int // overrides the workloads' fixed-count window (tests)
	// corruptShadow flips one shadow digest before the window, so the run
	// must report a wrong read.
	corruptShadow bool
}

func parseFlags(args []string, stderr io.Writer) (runConfig, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	workload := fs.String("workload", "", "workload to run (default all): "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "host-clock length of the measured window; the fixed-count part of it runs to its end even when that takes longer")
	trace := fs.Int("trace", 0, "0: run the end-to-end pass and report its metrics; 1: add the traced pass and report the per-layer metrics")
	out := fs.String("out", "", "write the stamped result JSON to this file")
	spans := fs.String("spans", "", "write the traced pass's spans to this file as JSONL")
	if err := fs.Parse(args); err != nil {
		return runConfig{}, err
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace, out: *out, spansPath: *spans,
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments %q", fs.Args())
		fmt.Fprintln(stderr, "bench:", err)
		return cfg, err
	}
	if *trace != 0 && *trace != 1 {
		err := fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
		fmt.Fprintln(stderr, "bench:", err)
		return cfg, err
	}
	if *seconds < 0 {
		err := fmt.Errorf("-seconds must not be negative")
		fmt.Fprintln(stderr, "bench:", err)
		return cfg, err
	}
	cfg.specs = specs
	if *workload != "" {
		s, err := specByName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return cfg, err
		}
		cfg.specs = []spec{s}
	}
	return cfg, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's part of the result file.
type workloadResult struct {
	Ops struct {
		Warmup      int `json:"warmup"`
		FixedWindow int `json:"fixed_window"`
		Window      int `json:"window"`
		LadderRow   int `json:"ladder_row,omitempty"`
	} `json:"ops"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	WrongReads int               `json:"wrong_reads"`
	FailedFrac float64           `json:"failed_frac"`
	Metrics    map[string]metric `json:"metrics"`
}

// stampInfo records what a result was measured on and with.
type stampInfo struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Go         string    `json:"go"`
	CPU        string    `json:"cpu"`
	Revision   string    `json:"revision"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"` // compare pairs only runs of one length
	Start      time.Time `json:"start"`
}

type resultFile struct {
	Stamp     stampInfo                  `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type spanRecord struct {
	Workload string `json:"workload"`
	Row      string `json:"row"`
	Op       int32  `json:"op"`
	Kind     string `json:"kind"`
	N        int32  `json:"n"`
	StartNs  int64  `json:"start_ns"`
	DurNs    int64  `json:"dur_ns"`
}

func run(cfg runConfig, stdout, stderr io.Writer) int {
	start := time.Now()
	// The contract is to finish well inside three minutes per workload; a
	// wedged request must not hang the run.
	watchdog := time.AfterFunc(time.Duration(len(cfg.specs))*170*time.Second, func() {
		fmt.Fprintln(stderr, "bench: run exceeded its time limit")
		os.Exit(1)
	})
	defer watchdog.Stop()

	ref, err := newEchoRef()
	if err != nil {
		fmt.Fprintln(stderr, "bench: echo reference:", err)
		return 1
	}
	defer ref.close()

	res := resultFile{Workloads: map[string]*workloadResult{}}
	spans := map[string][]span{}
	final := map[string]metric{}
	correct, attempted, failed := true, 0, 0
	for _, s := range cfg.specs {
		wr, sp, err := runWorkload(s, cfg, ref, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", s.name, err)
			return 1
		}
		res.Workloads[s.name] = wr
		spans[s.name] = sp
		for _, d := range allMetrics() {
			if m, ok := wr.Metrics[d.name]; ok {
				fmt.Fprintf(stdout, "%s %s %.6g %s\n", s.name, d.name, m.Value, m.Unit)
			}
		}
		for _, d := range reported(cfg.trace) {
			m, ok := wr.Metrics[d.name]
			if !ok {
				fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", s.name, d.name)
				return 1
			}
			key := d.name
			if len(cfg.specs) > 1 {
				key = s.name + "/" + d.name
			}
			final[key] = m
		}
		fmt.Fprintf(stdout, "%s failed_frac %.6g fraction (%d of %d ops, %d wrong reads)\n",
			s.name, wr.FailedFrac, wr.Failed, wr.Attempted, wr.WrongReads)
		correct = correct && wr.WrongReads == 0
		attempted += wr.Attempted
		failed += wr.Failed
	}

	code := 0
	if cfg.out != "" {
		res.Stamp = stamp(cfg, start)
		if err := writeJSONFile(cfg.out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	if cfg.spansPath != "" {
		if err := writeSpans(cfg.spansPath, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, final})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		fmt.Fprintln(stderr, "bench: reads returned wrong data")
		return 1
	}
	return code
}

// reported lists the metrics of the result line for a -trace setting.
func reported(trace int) []metricDef {
	if trace == 1 {
		return perLayer()
	}
	return endToEnd
}

// allMetrics lists every metric, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer()...)
}

// runWorkload generates the workload's ops, runs the end-to-end pass and,
// with -trace 1, the traced pass. The result holds every metric the run
// measured: the ladder's need the traced pass, the rest do not.
func runWorkload(s spec, cfg runConfig, ref *echoRef, stderr io.Writer) (*workloadResult, []span, error) {
	fixed := s.fixedOps
	if cfg.fixedOps > 0 {
		fixed = cfg.fixedOps
	}
	warm := fixed / 10
	st, err := newStream(s, cfg.seed, warm+fixed+fixed/2)
	if err != nil {
		return nil, nil, err
	}
	plans := connPlans(st.ops, warm, fixed, s.frame)
	e2e, err := runE2E(s, st, &plans, cfg, ref)
	if err != nil {
		return nil, nil, fmt.Errorf("end-to-end pass: %w", err)
	}
	wr := &workloadResult{Metrics: map[string]metric{}}
	wr.Ops.Warmup, wr.Ops.FixedWindow = warm, fixed
	values := e2e.values
	for _, c := range e2e.clients {
		wr.Ops.Window += c.window
		wr.Attempted += c.sent
		wr.Failed += c.failed + c.wrong
		wr.WrongReads += c.wrong
		if c.err != nil {
			fmt.Fprintf(stderr, "bench: %s: first failed op: %v\n", s.name, c.err)
		}
	}

	var spans []span
	if cfg.trace == 1 {
		lp := ladderPlan(st, warm, min(ladderOps, fixed), s.frame)
		lad, err := runLadder(s, st, &lp)
		if err != nil {
			return nil, nil, fmt.Errorf("traced pass: %w", err)
		}
		for k, v := range lad.values {
			values[k] = v
		}
		spans = lad.spans
		wr.Ops.LadderRow = lad.ops
		wr.Attempted += lad.sent
		wr.Failed += lad.failed + lad.wrong
		wr.WrongReads += lad.wrong
	}
	for _, d := range allMetrics() {
		v, ok := values[d.name]
		if !ok {
			continue // a ladder metric, without the traced pass
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a row with no reads or writes in its measured frames
		}
		wr.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	wr.FailedFrac = ratio(float64(wr.Failed), float64(wr.Attempted))
	return wr, spans, nil
}

func stamp(cfg runConfig, start time.Time) stampInfo {
	st := stampInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Revision:   "unknown",
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Start:      start,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				st.Revision = kv.Value
			case "vcs.modified":
				modified = kv.Value == "true"
			}
		}
		if modified {
			st.Revision += "+modified"
		}
	}
	return st
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux), falling
// back to the architecture.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range specs {
		for _, sp := range spans[s.name] {
			kind := "read"
			if sp.write {
				kind = "write"
			}
			rec := spanRecord{Workload: s.name, Row: ladderRows[sp.row], Op: sp.op, Kind: kind, N: sp.n, StartNs: sp.start, DurNs: sp.dur}
			if err := enc.Encode(rec); err != nil {
				return errors.Join(err, f.Close())
			}
		}
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
