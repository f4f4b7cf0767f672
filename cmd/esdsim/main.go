// Command esdsim is the trace-driven NVMM simulator CLI, mirroring the
// paper artifact's nvmain.fast front end: pick a scheme (0: Baseline,
// 1: Dedup_SHA1, 2: DeWrite, 3: ESD), a workload (a built-in application
// profile or a trace file), and get read/write/energy/latency statistics.
//
// Examples:
//
//	esdsim -scheme 3 -app lbm -n 200000
//	esdsim -scheme esd -trace lbm.esdt -latency lbm_lat.txt
//	esdsim -scheme esd -app lbm -metrics-addr :9090 -pprof
//	esdsim -scheme esd -app lbm -trace-out events.jsonl -trace-sample 64
//	esdsim -list
//	esdsim -config
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	esd "github.com/esdsim/esd"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/trace"
)

var schemeByIndex = map[string]string{
	"0": esd.SchemeBaseline,
	"1": esd.SchemeSHA1,
	"2": esd.SchemeDeWrite,
	"3": esd.SchemeESD,
	"4": esd.SchemeESDCaram,
}

func resolveScheme(s string) (string, error) {
	if name, ok := schemeByIndex[s]; ok {
		return name, nil
	}
	valid := append(esd.SchemeNames(), esd.SchemeBCD, esd.SchemeESDCaram)
	for _, name := range valid {
		if name == s {
			return name, nil
		}
	}
	return "", fmt.Errorf("unknown scheme %q (use 0-4 or %s)", s, strings.Join(valid, ", "))
}

// metricsServerHook, when set (by tests), is invoked after a run completes
// while the -metrics-addr server is still up, with the server's base URL.
var metricsServerHook func(url string)

func main() {
	if err := cliMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "esdsim:", err)
		os.Exit(1)
	}
}

// cliMain is the testable body of the command: it parses args, runs the
// requested simulation and writes human-readable output to stdout.
func cliMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("esdsim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		schemeFlag  = fs.String("scheme", "3", "scheme: 0/baseline, 1/dedup-sha1, 2/dewrite, 3/esd, 4/esd+caram")
		app         = fs.String("app", "", "built-in application profile (see -list)")
		mix         = fs.String("mix", "", "comma-separated applications run as a multi-programmed mix")
		traceFile   = fs.String("trace", "", "binary trace file (overrides -app)")
		n           = fs.Int("n", 100000, "measured requests")
		warmup      = fs.Int("warmup", 50000, "unmeasured warm-up requests (profiles only)")
		seed        = fs.Uint64("seed", 1, "generator seed")
		verify      = fs.Bool("verify", false, "verify every read against the last written content")
		latency     = fs.String("latency", "", "write the write-latency CDF to this file")
		list        = fs.Bool("list", false, "list application profiles and exit")
		showConfig  = fs.Bool("config", false, "print the system configuration and exit")
		compare     = fs.Bool("compare", false, "run all four schemes on the workload and print a comparison")
		withTree    = fs.Bool("integrity", false, "enable the Merkle counter tree (replay protection for encryption counters)")
		jsonOut     = fs.Bool("json", false, "emit the result as JSON instead of text")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics over HTTP on this address (/metrics, /debug/vars)")
		pprofFlag   = fs.Bool("pprof", false, "also mount net/http/pprof on the metrics server (needs -metrics-addr)")
		traceOut    = fs.String("trace-out", "", "render the run's records (sampled writes and reads, every rare event) into this file")
		traceFormat = fs.String("trace-format", "jsonl", "event trace encoding: jsonl or chrome")
		traceSample = fs.Int("trace-sample", 1, "trace every Nth write/read record (rare events always traced)")
		shards      = fs.Int("shards", 1, "partition the address space across N concurrent shards (sharded replay; ignores -warmup)")
		slow        = fs.Duration("slow", 0, "log requests whose simulated latency reaches this threshold (0 disables)")
		slowMax     = fs.Int("slow-max", 100, "cap on slow-request log lines (0 = unlimited)")
		deviceStats = fs.Bool("device-stats", false, "after the run, dump the device-health document (wear shape, per-bank rows, energy split, dedup effectiveness) as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "Available application profiles:")
		for _, p := range esd.Profiles() {
			fmt.Fprintf(stdout, "  %-14s %-13s dup=%5.1f%%  zero=%5.1f%%  writes=%4.0f%%  footprint=%6d lines\n",
				p.Name, p.Suite, p.DupRate*100, p.ZeroFrac*100, p.WriteRatio*100, p.FootprintLines)
		}
		return nil
	}

	cfg := esd.DefaultConfig()
	cfg.Seed = *seed
	cfg.Crypto.IntegrityEnabled = *withTree
	if *showConfig {
		fmt.Fprintf(stdout, "Table I configuration:\n")
		fmt.Fprintf(stdout, "  CPU:    %d cores @ %.0f GHz, %d outstanding requests\n",
			cfg.CPU.Cores, cfg.CPU.ClockHz/1e9, cfg.CPU.MaxOutstanding)
		fmt.Fprintf(stdout, "  L1/L2/L3: %dKB / %dKB / %dMB, all %d-way, 64 B lines\n",
			cfg.L1.Size>>10, cfg.L2.Size>>10, cfg.L3.Size>>20, cfg.L3.Ways)
		fmt.Fprintf(stdout, "  PCM:    %d GB, %d banks, read %v / write %v, %.2f/%.2f nJ\n",
			cfg.PCM.CapacityBytes>>30, cfg.PCM.Banks, cfg.PCM.ReadLatency,
			cfg.PCM.WriteLatency, cfg.PCM.ReadEnergy, cfg.PCM.WriteEnergy)
		fmt.Fprintf(stdout, "  Meta:   EFIT cache %d KB, AMT cache %d KB\n",
			cfg.Meta.EFITCacheBytes>>10, cfg.Meta.AMTCacheBytes>>10)
		fmt.Fprintf(stdout, "  Hashes: SHA-1 %v, MD5 %v, CRC %v; AES %v\n",
			cfg.FP.SHA1Latency, cfg.FP.MD5Latency, cfg.FP.CRCLatency, cfg.Crypto.EncryptLatency)
		return nil
	}

	if *compare {
		if *app == "" {
			return fmt.Errorf("-compare needs -app")
		}
		return compareSchemes(stdout, cfg, *app, *seed, *warmup, *n)
	}

	scheme, err := resolveScheme(*schemeFlag)
	if err != nil {
		return err
	}
	if *pprofFlag && *metricsAddr == "" {
		return fmt.Errorf("-pprof needs -metrics-addr")
	}

	if *shards > 1 {
		if *verify || *traceOut != "" {
			return fmt.Errorf("-shards does not support -verify or -trace-out (per-request oracle and event traces are single-shard features)")
		}
		stream, err := pickStream(*traceFile, *mix, *app, *seed, *n)
		if err != nil {
			return err
		}
		return runSharded(stdout, cfg, scheme, stream, shardRun{
			shards:      *shards,
			metricsAddr: *metricsAddr,
			pprof:       *pprofFlag,
			jsonOut:     *jsonOut,
			latency:     *latency,
			deviceStats: *deviceStats,
		})
	}

	// Telemetry options: any observability flag switches the Sink on.
	var sysOpts []esd.SystemOption
	if *metricsAddr != "" {
		sysOpts = append(sysOpts, esd.WithMetrics())
	}
	var traceW *os.File
	if *traceOut != "" {
		traceW, err = os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer traceW.Close()
		switch *traceFormat {
		case "jsonl":
			sysOpts = append(sysOpts, esd.WithEventTrace(traceW))
		case "chrome":
			sysOpts = append(sysOpts, esd.WithChromeTrace(traceW))
		default:
			return fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", *traceFormat)
		}
		if *traceSample > 1 {
			sysOpts = append(sysOpts, esd.WithTraceSampling(*traceSample))
		}
	}

	sys, err := esd.NewSystem(cfg, scheme, sysOpts...)
	if err != nil {
		return err
	}
	sys.SetVerifyReads(*verify)
	if *slow > 0 {
		sys.SetSlowRequestLog(os.Stderr, esd.Time(slow.Nanoseconds())*esd.Nanosecond, *slowMax)
	}

	var srv *esd.MetricsServer
	if *metricsAddr != "" {
		srv, err = sys.ServeMetrics(*metricsAddr, *pprofFlag)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "metrics: %s/metrics\n", srv.URL())
		if *pprofFlag {
			fmt.Fprintf(stdout, "pprof:   %s/debug/pprof/\n", srv.URL())
		}
	}

	var stream esd.Stream
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		stream = trace.NewReader(f)
	case *mix != "":
		sys.SetWarmup(*warmup)
		stream, err = esd.MixStream(*seed, *warmup+*n, strings.Split(*mix, ",")...)
		if err != nil {
			return err
		}
	case *app != "":
		sys.SetWarmup(*warmup)
		stream, err = esd.WorkloadStream(*app, *seed, *warmup+*n)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -app, -mix or -trace (see -list)")
	}

	res, err := sys.Run(stream)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := sys.CloseTrace(); err != nil {
			return fmt.Errorf("event trace: %w", err)
		}
		fmt.Fprintf(stdout, "event trace (%s) written to %s\n", *traceFormat, *traceOut)
	}
	if srv != nil && metricsServerHook != nil {
		metricsServerHook(srv.URL())
	}
	if *jsonOut {
		if err := printJSON(stdout, res); err != nil {
			return err
		}
	} else {
		printResult(stdout, res)
	}
	if *deviceStats {
		if err := printDeviceStats(stdout, scheme, []esd.DeviceHealthSnapshot{sys.DeviceHealth()}, sys.Stats()); err != nil {
			return err
		}
	}

	if *latency != "" {
		f, err := os.Create(*latency)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(f, "# write-latency CDF, scheme=%s\n# latency_ns cumulative_fraction\n", scheme)
		for _, p := range res.WriteHist.CDF() {
			fmt.Fprintf(f, "%.1f %.6f\n", p.Latency.Nanoseconds(), p.Frac)
		}
		fmt.Fprintf(stdout, "write-latency CDF written to %s\n", *latency)
	}
	return nil
}

// pickStream resolves the workload source for a sharded replay: a binary
// trace file, a multi-programmed mix, or a built-in application profile.
// The caller replays every record (no warm-up split).
func pickStream(traceFile, mix, app string, seed uint64, n int) (esd.Stream, error) {
	switch {
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		// The process exits right after the replay; the descriptor rides
		// along until then.
		return trace.NewReader(f), nil
	case mix != "":
		return esd.MixStream(seed, n, strings.Split(mix, ",")...)
	case app != "":
		return esd.WorkloadStream(app, seed, n)
	default:
		return nil, fmt.Errorf("need -app, -mix or -trace (see -list)")
	}
}

// shardRun bundles the sharded-replay knobs.
type shardRun struct {
	shards      int
	metricsAddr string
	pprof       bool
	jsonOut     bool
	latency     string
	deviceStats bool
}

// printDeviceStats dumps the same device-health document /debug/device
// serves, so offline runs and live serving share one JSON shape.
func printDeviceStats(w io.Writer, scheme string, snaps []esd.DeviceHealthSnapshot, st esd.SchemeStats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(server.DeviceFromHealth(scheme, snaps, st))
}

// runSharded replays the stream through a ShardedSystem and prints the
// merged summary.
func runSharded(w io.Writer, cfg esd.Config, scheme string, stream esd.Stream, opts shardRun) error {
	sysOpts := []esd.ShardOption{esd.WithShards(opts.shards)}
	if opts.metricsAddr != "" {
		sysOpts = append(sysOpts, esd.WithShardMetrics())
	}
	sys, err := esd.NewShardedSystem(cfg, scheme, sysOpts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	if opts.metricsAddr != "" {
		srv, err := sys.ServeMetrics(opts.metricsAddr, opts.pprof)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "metrics: %s/metrics (per-shard labels)\n", srv.URL())
	}
	res, err := sys.Run(stream)
	if err != nil {
		return err
	}
	if opts.jsonOut {
		if err := printShardedJSON(w, scheme, res); err != nil {
			return err
		}
	} else {
		printShardedResult(w, scheme, res)
	}
	if opts.deviceStats {
		if err := printDeviceStats(w, scheme, sys.DeviceHealths(), sys.LiveStats()); err != nil {
			return err
		}
	}
	if opts.latency != "" {
		f, err := os.Create(opts.latency)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(f, "# write-latency CDF, scheme=%s shards=%d\n# latency_ns cumulative_fraction\n", scheme, res.Shards)
		for _, p := range res.WriteHist.CDF() {
			fmt.Fprintf(f, "%.1f %.6f\n", p.Latency.Nanoseconds(), p.Frac)
		}
		fmt.Fprintf(w, "write-latency CDF written to %s\n", opts.latency)
	}
	return nil
}

// shardedJSON is the machine-readable shape of a sharded replay.
type shardedJSON struct {
	Scheme       string  `json:"scheme"`
	Shards       int     `json:"shards"`
	Requests     uint64  `json:"requests"`
	Reads        uint64  `json:"reads"`
	Writes       uint64  `json:"writes"`
	WriteMeanNs  float64 `json:"write_mean_ns"`
	WriteP99Ns   float64 `json:"write_p99_ns"`
	ReadMeanNs   float64 `json:"read_mean_ns"`
	ReadP99Ns    float64 `json:"read_p99_ns"`
	DedupRate    float64 `json:"dedup_rate"`
	UniqueWrites uint64  `json:"unique_writes"`
	EnergyNJ     float64 `json:"energy_nj"`
	MediaWrites  uint64  `json:"media_writes"`
	MetadataNVMM int64   `json:"metadata_nvmm_bytes"`
	MaxWear      uint64  `json:"max_wear"`
	ElapsedNs    float64 `json:"simulated_ns"`
}

func printShardedJSON(w io.Writer, scheme string, res *esd.ShardReplayResult) error {
	out := shardedJSON{
		Scheme:       scheme,
		Shards:       res.Shards,
		Requests:     res.Requests,
		Reads:        res.Reads,
		Writes:       res.Writes,
		WriteMeanNs:  res.WriteHist.Mean().Nanoseconds(),
		WriteP99Ns:   res.WriteHist.Percentile(0.99).Nanoseconds(),
		ReadMeanNs:   res.ReadHist.Mean().Nanoseconds(),
		ReadP99Ns:    res.ReadHist.Percentile(0.99).Nanoseconds(),
		DedupRate:    res.Scheme.DedupRate(),
		UniqueWrites: res.Scheme.UniqueWrites,
		EnergyNJ:     res.Energy.Total(),
		MediaWrites:  res.DeviceWrites,
		MetadataNVMM: res.MetadataNVMM,
		MaxWear:      res.MaxWear,
		ElapsedNs:    res.Now.Nanoseconds(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func printShardedResult(w io.Writer, scheme string, res *esd.ShardReplayResult) {
	fmt.Fprintf(w, "scheme=%s shards=%d requests=%d (reads=%d writes=%d) simulated=%v\n",
		scheme, res.Shards, res.Requests, res.Reads, res.Writes, res.Now)
	fmt.Fprintf(w, "writes:  mean=%v p50=%v p99=%v max=%v\n",
		res.WriteHist.Mean(), res.WriteHist.Percentile(0.5), res.WriteHist.Percentile(0.99), res.WriteHist.Max())
	fmt.Fprintf(w, "reads:   mean=%v p50=%v p99=%v max=%v\n",
		res.ReadHist.Mean(), res.ReadHist.Percentile(0.5), res.ReadHist.Percentile(0.99), res.ReadHist.Max())
	st := res.Scheme
	fmt.Fprintf(w, "dedup:   eliminated=%d/%d (%.1f%%)  unique-writes=%d\n",
		st.DedupWrites, st.Writes, st.DedupRate()*100, st.UniqueWrites)
	fmt.Fprintf(w, "energy:  total=%.1f uJ   device: media-writes=%d  metadata-nvmm=%d B  wear(max=%d mean=%.2f)\n",
		res.Energy.Total()/1000, res.DeviceWrites, res.MetadataNVMM, res.MaxWear, res.MeanWear)
}

// jsonResult is the machine-readable shape of a run.
type jsonResult struct {
	Scheme       string  `json:"scheme"`
	Requests     uint64  `json:"requests"`
	Reads        uint64  `json:"reads"`
	Writes       uint64  `json:"writes"`
	WriteMeanNs  float64 `json:"write_mean_ns"`
	WriteP99Ns   float64 `json:"write_p99_ns"`
	ReadMeanNs   float64 `json:"read_mean_ns"`
	ReadP99Ns    float64 `json:"read_p99_ns"`
	DedupRate    float64 `json:"dedup_rate"`
	UniqueWrites uint64  `json:"unique_writes"`
	NVMMLookups  uint64  `json:"fp_nvmm_lookups"`
	EnergyNJ     float64 `json:"energy_nj"`
	MediaWrites  uint64  `json:"media_writes"`
	MetadataNVMM int64   `json:"metadata_nvmm_bytes"`
	MaxWear      uint64  `json:"max_wear"`
	ElapsedNs    float64 `json:"simulated_ns"`
}

func printJSON(w io.Writer, res *esd.RunResult) error {
	out := jsonResult{
		Scheme:       res.SchemeName,
		Requests:     res.Requests,
		Reads:        res.Reads,
		Writes:       res.Writes,
		WriteMeanNs:  res.WriteHist.Mean().Nanoseconds(),
		WriteP99Ns:   res.WriteHist.Percentile(0.99).Nanoseconds(),
		ReadMeanNs:   res.ReadHist.Mean().Nanoseconds(),
		ReadP99Ns:    res.ReadHist.Percentile(0.99).Nanoseconds(),
		DedupRate:    res.Scheme.DedupRate(),
		UniqueWrites: res.Scheme.UniqueWrites,
		NVMMLookups:  res.Scheme.FPNVMMLookups,
		EnergyNJ:     res.Energy.Total(),
		MediaWrites:  res.DeviceWrites,
		MetadataNVMM: res.MetadataNVMM,
		MaxWear:      res.Wear.MaxWear,
		ElapsedNs:    res.Elapsed.Nanoseconds(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func printResult(w io.Writer, res *esd.RunResult) {
	fmt.Fprintf(w, "scheme=%s requests=%d (reads=%d writes=%d) simulated=%v\n",
		res.SchemeName, res.Requests, res.Reads, res.Writes, res.Elapsed)
	fmt.Fprintf(w, "writes:  mean=%v p50=%v p99=%v p99.9=%v max=%v\n",
		res.WriteHist.Mean(), res.WriteHist.Percentile(0.5), res.WriteHist.Percentile(0.99),
		res.WriteHist.Percentile(0.999), res.WriteHist.Max())
	fmt.Fprintf(w, "reads:   mean=%v p50=%v p99=%v p99.9=%v max=%v\n",
		res.ReadHist.Mean(), res.ReadHist.Percentile(0.5), res.ReadHist.Percentile(0.99),
		res.ReadHist.Percentile(0.999), res.ReadHist.Max())
	st := res.Scheme
	fmt.Fprintf(w, "dedup:   eliminated=%d/%d (%.1f%%)  unique-writes=%d  fp-nvmm-lookups=%d\n",
		st.DedupWrites, st.Writes, st.DedupRate()*100, st.UniqueWrites, st.FPNVMMLookups)
	fmt.Fprintf(w, "energy:  total=%.1f uJ (media=%.1f fp=%.1f crypto=%.1f sram=%.2f)\n",
		res.Energy.Total()/1000, res.Energy.Media/1000, res.Energy.Fingerprint/1000,
		res.Energy.Crypto/1000, res.Energy.SRAM/1000)
	fmt.Fprintf(w, "device:  media-writes=%d  metadata-nvmm=%d B  wear(max=%d mean=%.2f)\n",
		res.DeviceWrites, res.MetadataNVMM, res.Wear.MaxWear, res.Wear.MeanWear)
	b := res.Breakdown
	if total := b.Total(); total > 0 {
		fmt.Fprintf(w, "write-path profile: fp-compute=%.1f%% fp-nvmm=%.1f%% read-compare=%.1f%% write=%.1f%%\n",
			pct(b.FPCompute+b.FPLookupSRAM, total), pct(b.FPLookupNVMM, total),
			pct(b.ReadCompare, total), pct(b.Encrypt+b.Queue+b.Media+b.Metadata, total))
	}
}

func pct(part, total esd.Time) float64 { return 100 * float64(part) / float64(total) }

// compareSchemes replays the same workload under every scheme and prints a
// side-by-side summary with baseline-normalized columns.
func compareSchemes(w io.Writer, cfg esd.Config, app string, seed uint64, warmup, n int) error {
	type row struct {
		name string
		res  *esd.RunResult
	}
	var rows []row
	for _, name := range esd.SchemeNames() {
		sys, err := esd.NewSystem(cfg, name)
		if err != nil {
			return err
		}
		sys.SetWarmup(warmup)
		res, err := sys.RunWorkload(app, seed, warmup+n)
		if err != nil {
			return err
		}
		rows = append(rows, row{name, res})
	}
	base := rows[0].res
	fmt.Fprintf(w, "workload=%s requests=%d (after %d warm-up)\n\n", app, n, warmup)
	fmt.Fprintf(w, "%-12s %10s %10s %9s %9s %9s %10s %11s\n",
		"scheme", "wMean", "rMean", "wSpeedup", "rSpeedup", "dedup-%", "energy-rel", "data-writes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %9.0fns %9.0fns %8.2fx %8.2fx %9.1f %10.2f %11d\n",
			r.name,
			r.res.WriteHist.Mean().Nanoseconds(), r.res.ReadHist.Mean().Nanoseconds(),
			ratioOf(base.WriteHist.Mean(), r.res.WriteHist.Mean()),
			ratioOf(base.ReadHist.Mean(), r.res.ReadHist.Mean()),
			r.res.Scheme.DedupRate()*100,
			r.res.Energy.Total()/base.Energy.Total(),
			r.res.DataWrites)
	}
	return nil
}

func ratioOf(a, b esd.Time) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
