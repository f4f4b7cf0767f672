// Command esdload is a concurrent load generator for esdserve: it drives
// the HTTP/JSON or raw-TCP API from N workers with a configurable
// read/write mix and duplicate rate, then reports throughput, latency
// percentiles and flow-control counts (shed / timeout).
//
// Examples:
//
//	esdload -addr http://localhost:8080 -n 100000 -workers 8
//	esdload -addr localhost:8081 -proto tcp -writes 0.7 -dup 0.5
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/server"
)

func main() {
	if err := cliMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "esdload:", err)
		os.Exit(1)
	}
}

// workerStats accumulates one worker's measurements (merged after the
// run; no cross-worker sharing on the hot path).
type workerStats struct {
	latencies []time.Duration // wire round-trip per successful request
	ok        uint64
	shed      uint64
	timeout   uint64
	errs      uint64
	lastErr   error
	target    string
}

func cliMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("esdload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", "http://localhost:8080", "server base URL (http) or host:port (tcp)")
		targets  = fs.String("targets", "", "comma-separated endpoints; workers round-robin across them (overrides -addr)")
		proto    = fs.String("proto", "http", "protocol: http or tcp")
		n        = fs.Int("n", 10000, "total requests across all workers")
		workers  = fs.Int("workers", 4, "concurrent workers (one connection each)")
		writes   = fs.Float64("writes", 0.5, "fraction of requests that are writes")
		dup      = fs.Float64("dup", 0.3, "fraction of written lines drawn from a small duplicate pool")
		space    = fs.Uint64("space", 1<<20, "logical address space (lines)")
		seed     = fs.Int64("seed", 1, "workload seed")
		batch    = fs.Int("batch", 1, "ops per batched TCP frame (1 = scalar frames; tcp only)")
		flush    = fs.Bool("flush", true, "flush the engine after the run")
		statsOut = fs.Bool("stats", true, "fetch and print server-side /v1/stats after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers <= 0 || *n <= 0 {
		return fmt.Errorf("-n and -workers must be positive")
	}
	if *writes < 0 || *writes > 1 || *dup < 0 || *dup > 1 {
		return fmt.Errorf("-writes and -dup must be in [0,1]")
	}
	if *batch < 1 || *batch > server.MaxBatchOps {
		return fmt.Errorf("-batch must be in [1,%d]", server.MaxBatchOps)
	}
	if *batch > 1 && *proto != "tcp" {
		return fmt.Errorf("-batch requires -proto tcp (the HTTP API has no batch frames)")
	}

	// Workers pin to targets round-robin, so a multi-target run (e.g. the
	// nodes of a cluster, or N routers) gets an even worker split and
	// per-target latency attribution.
	targetList := []string{*addr}
	if *targets != "" {
		targetList = targetList[:0]
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targetList = append(targetList, t)
			}
		}
		if len(targetList) == 0 {
			return fmt.Errorf("-targets is empty after trimming")
		}
	}

	newClient := func(target string) (server.Client, error) {
		switch *proto {
		case "http":
			if !strings.Contains(target, "://") {
				target = "http://" + target
			}
			return server.NewHTTPClient(target), nil
		case "tcp":
			return server.DialTCP(target)
		default:
			return nil, fmt.Errorf("unknown -proto %q (want http or tcp)", *proto)
		}
	}

	perWorker := *n / *workers
	stats := make([]workerStats, *workers)
	var wg sync.WaitGroup
	var aborted atomic.Bool
	start := time.Now()
	for wi := 0; wi < *workers; wi++ {
		target := targetList[wi%len(targetList)]
		c, err := newClient(target)
		if err != nil {
			return err
		}
		stats[wi].target = target
		wg.Add(1)
		go func(wi int, c server.Client) {
			defer wg.Done()
			defer c.Close()
			st := &stats[wi]
			st.latencies = make([]time.Duration, 0, perWorker)
			rng := rand.New(rand.NewSource(*seed + int64(wi)))
			if *batch > 1 {
				runBatched(c.(*server.TCPClient), st, rng, perWorker, *batch, *writes, *dup, *space, &aborted)
				return
			}
			for i := 0; i < perWorker && !aborted.Load(); i++ {
				addr := rng.Uint64() % *space
				reqStart := time.Now()
				var err error
				if rng.Float64() < *writes {
					var line ecc.Line
					if rng.Float64() < *dup {
						line.SetWord(0, uint64(rng.Intn(16))) // 16-line duplicate pool
					} else {
						line.SetWord(0, rng.Uint64())
						line.SetWord(1, rng.Uint64())
					}
					_, err = c.Write(addr, line)
				} else {
					_, err = c.Read(addr)
				}
				switch {
				case err == nil:
					st.latencies = append(st.latencies, time.Since(reqStart))
					st.ok++
				case err == server.ErrOverloaded:
					st.shed++
				case err == server.ErrTimeout:
					st.timeout++
				default:
					st.errs++
					st.lastErr = err
					if st.errs > 100 { // broken server/connection: stop hammering
						aborted.Store(true)
						return
					}
				}
			}
		}(wi, c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	var ok, shed, timeouts, errs uint64
	var lastErr error
	for i := range stats {
		all = append(all, stats[i].latencies...)
		ok += stats[i].ok
		shed += stats[i].shed
		timeouts += stats[i].timeout
		errs += stats[i].errs
		if stats[i].lastErr != nil {
			lastErr = stats[i].lastErr
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	mode := *proto
	if *batch > 1 {
		mode = fmt.Sprintf("%s batch=%d", *proto, *batch)
	}
	fmt.Fprintf(stdout, "esdload: %d ok, %d shed, %d timeout, %d errors in %v (%s, %d workers)\n",
		ok, shed, timeouts, errs, elapsed.Round(time.Millisecond), mode, *workers)
	if ok > 0 {
		fmt.Fprintf(stdout, "throughput: %.0f req/s\n", float64(ok)/elapsed.Seconds())
		fmt.Fprintf(stdout, "latency: p50=%v p90=%v p99=%v max=%v\n",
			pctOf(all, 0.50).Round(time.Microsecond), pctOf(all, 0.90).Round(time.Microsecond),
			pctOf(all, 0.99).Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	}
	if len(targetList) > 1 {
		perTarget := make(map[string][]time.Duration, len(targetList))
		perOK := make(map[string]uint64, len(targetList))
		for i := range stats {
			perTarget[stats[i].target] = append(perTarget[stats[i].target], stats[i].latencies...)
			perOK[stats[i].target] += stats[i].ok
		}
		for _, t := range targetList {
			lat := perTarget[t]
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if len(lat) == 0 {
				fmt.Fprintf(stdout, "target %s: %d ok\n", t, perOK[t])
				continue
			}
			fmt.Fprintf(stdout, "target %s: %d ok  p50=%v p90=%v p99=%v\n", t, perOK[t],
				pctOf(lat, 0.50).Round(time.Microsecond), pctOf(lat, 0.90).Round(time.Microsecond),
				pctOf(lat, 0.99).Round(time.Microsecond))
		}
	}
	if lastErr != nil {
		fmt.Fprintf(stdout, "last error: %v\n", lastErr)
	}

	if *flush || *statsOut {
		c, err := newClient(targetList[0])
		if err != nil {
			return err
		}
		defer c.Close()
		if *flush {
			if err := c.Flush(); err != nil {
				return fmt.Errorf("flush: %w", err)
			}
		}
		if *statsOut {
			st, err := c.Stats()
			if err != nil {
				return fmt.Errorf("stats: %w", err)
			}
			fmt.Fprintf(stdout, "server: scheme=%s shards=%d writes=%d reads=%d dedup=%.1f%% shed=%d\n",
				st.Scheme, st.Shards, st.Writes, st.Reads, st.DedupRate*100, st.Shed)
		}
	}
	if errs > 0 {
		return fmt.Errorf("%d requests failed (last: %v)", errs, lastErr)
	}
	return nil
}

// runBatched drives one worker's request share through the batched TCP
// frames: ops accumulate into homogeneous write/read batches that flush
// when full (and at the end), one round trip per batch. Per-op latency
// is the batch round trip divided evenly across its ops, so the
// percentiles report amortized per-op cost — the quantity batching
// optimizes. The op stream (addresses, mix, duplicate pool) is
// generated identically to the scalar path.
func runBatched(c *server.TCPClient, st *workerStats, rng *rand.Rand, total, batch int,
	writes, dup float64, space uint64, aborted *atomic.Bool) {

	wops := make([]server.BatchWriteOp, 0, batch)
	wres := make([]server.BatchWriteResult, batch)
	raddrs := make([]uint64, 0, batch)
	rres := make([]server.BatchReadResult, batch)

	perOp := func(err error) {
		switch err {
		case nil:
			st.ok++
		case server.ErrOverloaded:
			st.shed++
		case server.ErrTimeout:
			st.timeout++
		default:
			st.errs++
			st.lastErr = err
			if st.errs > 100 {
				aborted.Store(true)
			}
		}
	}
	flushWrites := func() {
		if len(wops) == 0 {
			return
		}
		reqStart := time.Now()
		if err := c.WriteBatch(wops, wres[:len(wops)]); err != nil {
			// Frame-level failure: the whole batch died with the connection.
			st.errs += uint64(len(wops))
			st.lastErr = err
			aborted.Store(true)
			wops = wops[:0]
			return
		}
		per := time.Since(reqStart) / time.Duration(len(wops))
		for i := range wops {
			perOp(wres[i].Err)
			if wres[i].Err == nil {
				st.latencies = append(st.latencies, per)
			}
		}
		wops = wops[:0]
	}
	flushReads := func() {
		if len(raddrs) == 0 {
			return
		}
		reqStart := time.Now()
		if err := c.ReadBatch(raddrs, rres[:len(raddrs)]); err != nil {
			st.errs += uint64(len(raddrs))
			st.lastErr = err
			aborted.Store(true)
			raddrs = raddrs[:0]
			return
		}
		per := time.Since(reqStart) / time.Duration(len(raddrs))
		for i := range raddrs {
			perOp(rres[i].Err)
			if rres[i].Err == nil {
				st.latencies = append(st.latencies, per)
			}
		}
		raddrs = raddrs[:0]
	}

	for i := 0; i < total && !aborted.Load(); i++ {
		addr := rng.Uint64() % space
		if rng.Float64() < writes {
			var line ecc.Line
			if rng.Float64() < dup {
				line.SetWord(0, uint64(rng.Intn(16))) // 16-line duplicate pool
			} else {
				line.SetWord(0, rng.Uint64())
				line.SetWord(1, rng.Uint64())
			}
			wops = append(wops, server.BatchWriteOp{Addr: addr, Line: line})
			if len(wops) == batch {
				flushWrites()
			}
		} else {
			raddrs = append(raddrs, addr)
			if len(raddrs) == batch {
				flushReads()
			}
		}
	}
	flushWrites()
	flushReads()
}

// pctOf indexes a sorted latency slice at quantile p.
func pctOf(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}
