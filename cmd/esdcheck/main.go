// Command esdcheck runs the model-based differential and invariant checker
// (internal/check) against all schemes: one deterministic workload applied
// to a map-based oracle and every scheme variant (single-threaded plus
// sharded, with writes run by the shard worker or inline by the caller),
// failing loudly on any divergence or invariant violation.
//
// Every failure prints the seed and op index; replay the exact failing
// prefix with the command printed under it:
//
//	esdcheck -seed N -upto M+1 [the run's stream-shaping flags]
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

// flags holds run's parsed flag values.
type flags struct {
	ops, seeds, upto, every int
	seed                    uint64
	gen, schemes, shards    string
	concurrent, verbose     bool
	batch                   float64

	// Cluster mode: differential-check a consistent-hash router over
	// real in-process nodes instead of the engine matrix.
	cluster                                      bool
	clusterNodes, replication, killAt, reshardAt int
}

// newFlags returns run's flag set and the values it parses into.
func newFlags(stderr io.Writer) (*flag.FlagSet, *flags) {
	fs := flag.NewFlagSet("esdcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := &flags{}
	fs.IntVar(&f.ops, "ops", 200_000, "operations per seed")
	fs.Uint64Var(&f.seed, "seed", 1, "first workload seed")
	fs.IntVar(&f.seeds, "seeds", 1, "number of consecutive seeds to run")
	fs.IntVar(&f.upto, "upto", 0, "stop after N ops (replay a failing prefix; 0 = all)")
	fs.IntVar(&f.every, "every", 2000, "run invariant audits every K ops (<0 disables)")
	fs.StringVar(&f.gen, "gen", "default", "workload profile: default, or migrate (phase-shifting hot set)")
	fs.StringVar(&f.schemes, "schemes", "", "comma-separated schemes (default: the canonical four plus esd+caram)")
	fs.StringVar(&f.shards, "shards", "1,2,8", "comma-separated shard counts for the sharded variants ('' disables)")
	fs.BoolVar(&f.concurrent, "concurrent", false, "also run the adversarial concurrent schedules")
	fs.Float64Var(&f.batch, "batch", 0, "fraction of consecutive-write and consecutive-read runs issued through the batch APIs (0 disables, 1 = all)")
	fs.BoolVar(&f.verbose, "v", false, "progress output")
	fs.BoolVar(&f.cluster, "cluster", false, "check the cluster router over N in-process nodes (TCP data path)")
	fs.IntVar(&f.clusterNodes, "cluster-nodes", 3, "initial backend count (cluster mode)")
	fs.IntVar(&f.replication, "replication", 2, "router replica factor (cluster mode)")
	fs.IntVar(&f.killAt, "kill-at", 0, "kill one node after this op index (0 = 70% of ops, <0 disables; cluster mode)")
	fs.IntVar(&f.reshardAt, "reshard-at", 0, "grow the ring by one node after this op index (0 = 40% of ops, <0 disables; cluster mode)")
	return fs, f
}

// replayFlags names the flags that shape a run's op stream (the
// generator's dup-ratio quarters and migration phases scale with -ops) and,
// in cluster mode, its fault schedule (the default -kill-at and
// -reshard-at scale with -ops too).
var replayFlags = []string{"cluster", "ops", "gen", "batch", "cluster-nodes", "replication", "kill-at", "reshard-at"}

// replayCommand is the command that replays the first upto ops of seed's
// run: -seed and -upto, plus every flag of replayFlags whose value in fs
// differs from its default.
func replayCommand(fs *flag.FlagSet, seed uint64, upto int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "esdcheck -seed %d -upto %d", seed, upto)
	for _, name := range replayFlags {
		f := fs.Lookup(name)
		v := f.Value.String()
		if v == f.DefValue {
			continue
		}
		if _, isBool := f.Value.(interface{ IsBoolFlag() bool }); isBool {
			fmt.Fprintf(&b, " -%s=%s", name, v)
		} else {
			fmt.Fprintf(&b, " -%s %s", name, v)
		}
	}
	return b.String()
}

// genConfig is the generator both modes run: the -gen profile sized to
// -ops.
func (f *flags) genConfig() (check.GenConfig, error) {
	var gen check.GenConfig
	switch f.gen {
	case "default":
		gen = check.DefaultGen()
	case "migrate":
		gen = check.MigrateGen()
		// PhaseEvery tracks the actual op count, not MigrateGen's default.
		gen.PhaseEvery = max(f.ops/8, 1)
	default:
		return gen, fmt.Errorf("bad -gen %q (want default or migrate)", f.gen)
	}
	gen.Ops = f.ops
	return gen, nil
}

// config is the differential run's configuration, without its seed.
func (f *flags) config() (check.Config, error) {
	gen, err := f.genConfig()
	if err != nil {
		return check.Config{}, err
	}
	cfg := check.Config{
		Gen:           gen,
		Upto:          f.upto,
		AuditEvery:    f.every,
		BatchFraction: f.batch,
	}
	if f.schemes != "" {
		cfg.Schemes = splitList(f.schemes)
	}
	if cfg.Shards, err = parseInts(f.shards); err != nil {
		return check.Config{}, fmt.Errorf("bad -shards: %v", err)
	}
	return cfg, nil
}

// clusterConfig is the routed run's configuration, without its seed.
func (f *flags) clusterConfig() (check.ClusterConfig, error) {
	gen, err := f.genConfig()
	if err != nil {
		return check.ClusterConfig{}, err
	}
	return check.ClusterConfig{
		Gen:           gen,
		Nodes:         f.clusterNodes,
		Replication:   f.replication,
		KillAt:        f.killAt,
		ReshardAt:     f.reshardAt,
		Upto:          f.upto,
		BatchFraction: f.batch,
	}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs, f := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if f.batch < 0 || f.batch > 1 {
		fmt.Fprintf(stderr, "esdcheck: -batch must be in [0,1]\n")
		return 2
	}

	if f.cluster {
		cfg, err := f.clusterConfig()
		if err != nil {
			fmt.Fprintf(stderr, "esdcheck: %v\n", err)
			return 2
		}
		return runCluster(stdout, stderr, fs, f, cfg)
	}

	cfg, err := f.config()
	if err != nil {
		fmt.Fprintf(stderr, "esdcheck: %v\n", err)
		return 2
	}

	failed := false
	for s := f.seed; s < f.seed+uint64(f.seeds); s++ {
		runCfg := cfg
		runCfg.Seed = s
		if f.verbose {
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
				fmt.Fprintf(stdout, "    replay: %s\n", replayCommand(fs, s, v.Op+1))
			}
		}
		if f.concurrent {
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

// runCluster drives the routed differential checker: oracle vs a
// consistent-hash router over real TCP backends, with a node kill and a
// reshard cutover injected mid-stream at deterministic op indices.
func runCluster(stdout, stderr io.Writer, fs *flag.FlagSet, f *flags, base check.ClusterConfig) int {
	failed := false
	for s := f.seed; s < f.seed+uint64(f.seeds); s++ {
		cfg := base
		cfg.Seed = s
		if f.verbose {
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
				s, res.Ops, res.Writes, res.Reads, cfg.Nodes, cfg.Replication, time.Since(start).Round(time.Millisecond))
			continue
		}
		failed = true
		fmt.Fprintf(stdout, "cluster seed %d: FAIL — %d violation(s):\n", s, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "  %v\n", v)
			fmt.Fprintf(stdout, "    replay: %s\n", replayCommand(fs, s, v.Op+1))
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
