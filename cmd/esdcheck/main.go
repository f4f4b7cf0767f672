// Command esdcheck runs the model-based differential and invariant checker
// (internal/check) against all schemes: one deterministic workload applied
// to a map-based oracle and every scheme variant (single-threaded plus
// sharded with and without coalescing), failing loudly on any divergence.
//
// Every failure prints the seed and op index; replay the exact failing
// prefix with:
//
//	esdcheck -seed N -upto M+1
//
// Exit status is 0 when every seed passes, 1 on violations, 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/esdsim/esd/internal/check"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("esdcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ops        = fs.Int("ops", 200_000, "operations per seed")
		seed       = fs.Uint64("seed", 1, "first workload seed")
		seeds      = fs.Int("seeds", 1, "number of consecutive seeds to run")
		upto       = fs.Int("upto", 0, "stop after N ops (replay a failing prefix; 0 = all)")
		every      = fs.Int("every", 2000, "run invariant audits every K ops (<0 disables)")
		genName    = fs.String("gen", "default", "workload profile: default, or migrate (phase-shifting hot set)")
		schemes    = fs.String("schemes", "", "comma-separated schemes (default: the canonical four plus esd+caram)")
		shards     = fs.String("shards", "1,2,8", "comma-separated shard counts for the sharded variants ('' disables)")
		coalesce   = fs.String("coalesce", "both", "coalescing for sharded variants: off, on or both")
		concurrent = fs.Bool("concurrent", false, "also run the adversarial concurrent schedules")
		batchFrac  = fs.Float64("batch", 0, "fraction of consecutive-write and consecutive-read runs issued through the batch APIs (0 disables, 1 = all)")
		verbose    = fs.Bool("v", false, "progress output")

		// Cluster mode: differential-check a consistent-hash router over
		// real in-process nodes instead of the engine matrix.
		clusterMode  = fs.Bool("cluster", false, "check the cluster router over N in-process nodes (TCP data path)")
		clusterNodes = fs.Int("cluster-nodes", 3, "initial backend count (cluster mode)")
		replication  = fs.Int("replication", 2, "router replica factor (cluster mode)")
		killAt       = fs.Int("kill-at", 0, "kill one node after this op index (0 = 70% of ops, <0 disables; cluster mode)")
		reshardAt    = fs.Int("reshard-at", 0, "grow the ring by one node after this op index (0 = 40% of ops, <0 disables; cluster mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *batchFrac < 0 || *batchFrac > 1 {
		fmt.Fprintf(stderr, "esdcheck: -batch must be in [0,1]\n")
		return 2
	}

	if *clusterMode {
		return runCluster(stdout, stderr, clusterArgs{
			ops: *ops, seed: *seed, seeds: *seeds, upto: *upto,
			nodes: *clusterNodes, replication: *replication,
			killAt: *killAt, reshardAt: *reshardAt,
			batchFrac: *batchFrac, verbose: *verbose,
		})
	}

	gen := check.DefaultGen()
	switch *genName {
	case "default":
	case "migrate":
		gen = check.MigrateGen()
	default:
		fmt.Fprintf(stderr, "esdcheck: bad -gen %q (want default or migrate)\n", *genName)
		return 2
	}
	cfg := check.Config{
		Gen:           gen,
		Upto:          *upto,
		AuditEvery:    *every,
		BatchFraction: *batchFrac,
	}
	cfg.Gen.Ops = *ops
	if *genName == "migrate" {
		// PhaseEvery tracks the actual op count, not MigrateGen's default.
		cfg.Gen.PhaseEvery = max(*ops/8, 1)
	}
	if *schemes != "" {
		cfg.Schemes = splitList(*schemes)
	}
	var err error
	if cfg.Shards, err = parseInts(*shards); err != nil {
		fmt.Fprintf(stderr, "esdcheck: bad -shards: %v\n", err)
		return 2
	}
	switch *coalesce {
	case "off":
		cfg.Coalesce = []bool{false}
	case "on":
		cfg.Coalesce = []bool{true}
	case "both":
		cfg.Coalesce = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "esdcheck: bad -coalesce %q (want off, on or both)\n", *coalesce)
		return 2
	}

	failed := false
	for s := *seed; s < *seed+uint64(*seeds); s++ {
		runCfg := cfg
		runCfg.Seed = s
		if *verbose {
			runCfg.Progress = func(done, total int) {
				fmt.Fprintf(stdout, "seed %d: %d/%d ops\n", s, done, total)
			}
		}
		start := time.Now()
		res, err := check.Run(runCfg)
		if err != nil {
			fmt.Fprintf(stderr, "esdcheck: seed %d: %v\n", s, err)
			return 2
		}
		if res.Ok() {
			fmt.Fprintf(stdout, "seed %d: OK — %d ops (%d writes, %d reads, %d crashes) across %d engines in %v\n",
				s, res.Ops, res.Writes, res.Reads, res.Crashes, len(res.Engines), time.Since(start).Round(time.Millisecond))
		} else {
			failed = true
			fmt.Fprintf(stdout, "seed %d: FAIL — %d violation(s):\n", s, len(res.Violations))
			for _, v := range res.Violations {
				fmt.Fprintf(stdout, "  %v\n", v)
				fmt.Fprintf(stdout, "    replay: esdcheck -seed %d -upto %d%s\n", s, v.Op+1, batchArg(*batchFrac))
			}
		}
		if *concurrent {
			schemeSet := cfg.Schemes
			if len(schemeSet) == 0 {
				schemeSet = check.DefaultSchemes()
			}
			for _, scheme := range schemeSet {
				ccfg := check.DefaultConcurrent(scheme)
				ccfg.Seed = s
				ccfg.FaultBank = 2
				vios, err := check.RunConcurrent(ccfg)
				if err != nil {
					fmt.Fprintf(stderr, "esdcheck: concurrent %s: %v\n", scheme, err)
					return 2
				}
				if len(vios) == 0 {
					fmt.Fprintf(stdout, "seed %d: concurrent %s OK (%d workers x %d ops)\n",
						s, scheme, ccfg.Workers, ccfg.OpsPerWorker)
					continue
				}
				failed = true
				fmt.Fprintf(stdout, "seed %d: concurrent %s FAIL — %d violation(s):\n", s, scheme, len(vios))
				for _, v := range vios {
					fmt.Fprintf(stdout, "  %v\n", v)
				}
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// batchArg is the -batch flag a replay command needs: the batching coin
// shapes which ops reach the engines through which API.
func batchArg(frac float64) string {
	if frac == 0 {
		return ""
	}
	return fmt.Sprintf(" -batch %g", frac)
}

type clusterArgs struct {
	ops, seeds, upto   int
	seed               uint64
	nodes, replication int
	killAt, reshardAt  int
	batchFrac          float64
	verbose            bool
}

// runCluster drives the routed differential checker: oracle vs a
// consistent-hash router over real TCP backends, with a node kill and a
// reshard cutover injected mid-stream at deterministic op indices.
func runCluster(stdout, stderr io.Writer, a clusterArgs) int {
	failed := false
	for s := a.seed; s < a.seed+uint64(a.seeds); s++ {
		cfg := check.ClusterConfig{
			Gen:           check.DefaultGen(),
			Seed:          s,
			Nodes:         a.nodes,
			Replication:   a.replication,
			KillAt:        a.killAt,
			ReshardAt:     a.reshardAt,
			Upto:          a.upto,
			BatchFraction: a.batchFrac,
		}
		cfg.Gen.Ops = a.ops
		if a.verbose {
			cfg.Progress = func(done, total int) {
				fmt.Fprintf(stdout, "cluster seed %d: %d/%d ops\n", s, done, total)
			}
		}
		start := time.Now()
		res, err := check.RunCluster(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "esdcheck: cluster seed %d: %v\n", s, err)
			return 2
		}
		if res.Ok() {
			fmt.Fprintf(stdout, "cluster seed %d: OK — %d ops (%d writes, %d reads) routed over %d nodes r=%d in %v\n",
				s, res.Ops, res.Writes, res.Reads, a.nodes, a.replication, time.Since(start).Round(time.Millisecond))
			continue
		}
		failed = true
		fmt.Fprintf(stdout, "cluster seed %d: FAIL — %d violation(s):\n", s, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "  %v\n", v)
			fmt.Fprintf(stdout, "    replay: esdcheck -cluster -seed %d -upto %d -cluster-nodes %d -replication %d%s\n",
				s, v.Op+1, a.nodes, a.replication, batchArg(a.batchFrac))
		}
	}
	if failed {
		return 1
	}
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	out := []int{}
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("shard count %d out of range", n)
		}
		out = append(out, n)
	}
	return out, nil
}
