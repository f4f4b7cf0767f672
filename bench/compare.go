package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// minPairs is the fewest parent/change run pairs a comparison accepts.
const minPairs = 10

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how one metric is judged: its better direction and, for
// end-to-end metrics, the bound by which it may worsen.
type rule struct {
	name     string
	better   string
	bound    float64
	hasBound bool
}

// summary is one side's median and quartiles.
type summary struct{ q1, median, q3 float64 }

func summarize(values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{q1, median(values), q3}
}

func (s summary) String() string { return fmt.Sprintf("%.6g [%.6g, %.6g]", s.median, s.q1, s.q3) }

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	result         string // improved, regressed, unchanged or unresolved
	wins, pairs    int
	parent, change summary
}

// judge applies the interleaved A/B rule to paired runs (parent[i] and
// change[i] ran back to back). An improvement needs the change to win at
// least nine tenths of the pairs, ties counting for neither, and a median
// gap wider than the parent's interquartile range. A metric with a bound
// regresses when the change's median is worse than the parent's by more
// than the bound; when the parent's own spread is wider than the bound the
// metric is unresolved, unless every change run beats every parent run.
// A metric without a bound regresses by the mirror of the improvement
// rule, and is unchanged when the medians differ by less than the spread.
func judge(parent, change []float64, r rule) verdict {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	better := func(a, b float64) bool { // a reads better than b
		if r.better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{pairs: n}
	losses := 0
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			v.wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	v.parent, v.change = summarize(parent), summarize(change)
	iqr := v.parent.q3 - v.parent.q1
	gap := v.change.median - v.parent.median // > 0 is an improvement
	worst, best := slices.Min[[]float64], slices.Max[[]float64]
	if r.better != "higher" {
		gap = -gap
		worst, best = best, worst
	}
	allBetter := better(worst(change), best(parent))
	switch {
	case v.wins*10 >= 9*n && gap > iqr:
		v.result = "improved"
	case r.hasBound && -gap > r.bound*math.Abs(v.parent.median):
		v.result = "regressed"
	case !r.hasBound && losses*10 >= 9*n && -gap > iqr:
		v.result = "regressed"
	case r.hasBound && iqr > r.bound*math.Abs(v.parent.median) && !allBetter:
		v.result = "unresolved"
	case !r.hasBound && math.Abs(gap) > iqr:
		v.result = "unresolved"
	default:
		v.result = "unchanged"
	}
	return v
}

// compareMain is `bench compare [-benchmark file] parent... -- change...`.
// Result files pair up in order; alternate which side runs first. The exit
// status is 1 when an end-to-end metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := slices.Index(rest, "--")
	if sep < 0 {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] parent.json... -- change.json...")
		return 2
	}
	rules, err := loadRules(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	parents, err := loadResults(rest[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	changes, err := loadResults(rest[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	return compareResults(parents, changes, rules, stdout, stderr)
}

func compareResults(parents, changes []resultFile, rules []rule, stdout, stderr io.Writer) int {
	if len(parents) != len(changes) || len(parents) < minPairs {
		fmt.Fprintf(stderr, "bench compare: need at least %d parent/change pairs, have %d and %d files\n", minPairs, len(parents), len(changes))
		return 2
	}
	// The window length moves the host-clock tails, so runs of different
	// lengths do not compare.
	for _, side := range [][]resultFile{parents, changes} {
		for _, f := range side {
			if f.Stamp.Seconds != parents[0].Stamp.Seconds {
				fmt.Fprintf(stderr, "bench compare: result files measured %g s and %g s windows; compare runs of one -seconds\n", parents[0].Stamp.Seconds, f.Stamp.Seconds)
				return 2
			}
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tresult\tparent median [q1, q3]\tchange median [q1, q3]\twins")
	code := 0
	for _, s := range specs {
		var pf, cf int
		for i := range parents {
			if w := parents[i].Workloads[s.name]; w != nil {
				pf += w.Failed
			}
			if w := changes[i].Workloads[s.name]; w != nil {
				cf += w.Failed
			}
		}
		// A gain does not count when more operations failed than at the
		// parent.
		moreFailures := cf > pf
		for _, r := range rules {
			var p, c []float64
			for i := range parents {
				pw, cw := parents[i].Workloads[s.name], changes[i].Workloads[s.name]
				if pw == nil || cw == nil {
					continue
				}
				pm, okp := pw.Metrics[r.name]
				cm, okc := cw.Metrics[r.name]
				if okp && okc {
					p, c = append(p, pm.Value), append(c, cm.Value)
				}
			}
			if len(p) < minPairs {
				continue
			}
			v := judge(p, c, r)
			if v.result == "improved" && moreFailures {
				v.result = "unresolved"
			}
			if v.result == "regressed" && r.hasBound {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%v\t%v\t%d/%d\n", s.name, r.name, v.result, v.parent, v.change, v.wins, v.pairs)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	return code
}

func loadRules(path string) ([]rule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var rules []rule
	for _, m := range bf.EndToEnd {
		rules = append(rules, rule{name: m.Name, better: m.Better, bound: m.Bound, hasBound: true})
	}
	for _, m := range bf.PerLayer {
		rules = append(rules, rule{name: m.Name, better: m.Better})
	}
	return rules, nil
}

func loadResults(paths []string) ([]resultFile, error) {
	var out []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rf)
	}
	return out, nil
}
