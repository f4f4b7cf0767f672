package check

import (
	"fmt"
	"slices"
	"sync"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/xrand"
)

// ConcurrentConfig parameterizes one adversarial concurrent schedule.
type ConcurrentConfig struct {
	// Scheme is the scheme every shard runs.
	Scheme string
	// Shards is the engine's shard count.
	Shards int
	// Workers is the number of concurrent client goroutines.
	Workers int
	// OpsPerWorker is each worker's op count.
	OpsPerWorker int
	// Addrs is the shared logical address space (small, to maximize
	// same-address contention).
	Addrs uint64
	// Seed derives every worker's private generator (seed + worker index).
	Seed uint64
	// FaultBank, when >= 0, injects extra latency into that bank of every
	// shard's device — a timing adversary that skews worker interleavings
	// without changing functional behavior.
	FaultBank int
}

// DefaultConcurrent returns a contention-heavy schedule.
func DefaultConcurrent(scheme string) ConcurrentConfig {
	return ConcurrentConfig{
		Scheme:       scheme,
		Shards:       4,
		Workers:      8,
		OpsPerWorker: 2000,
		Addrs:        256,
		Seed:         1,
		FaultBank:    -1,
	}
}

// stripeCount is the number of address-stripe locks (power of two).
const stripeCount = 64

// RunConcurrent hammers one sharded engine from Workers goroutines with a
// mixed read/write workload and checks per-address linearizability: a
// striped lock is held across {engine op, model update}, so within one
// address ops are serialized and every read must return exactly the model's
// current value, while across addresses the engine sees genuinely
// concurrent traffic (run it under -race). Half the writes ride
// WriteAsync, so the shard workers run them in drained batches, and half
// blocking Write, which runs on the calling goroutine when its shard is
// idle: both owners reach every shard. Batch writes and reads
// (WriteBatch, ReadBatch) hold every touched stripe, taken in stripe order
// so that no two workers deadlock. An async write followed at once by a
// read of the same address must read it back: the write is still queued
// when the read arrives, so the read must not run ahead of it. Once the
// workers are done and every model entry has read back, the invariant
// audits run on every shard.
//
// It returns harness violations; an error reports engine construction
// failure.
func RunConcurrent(cfg ConcurrentConfig) ([]Violation, error) {
	sys := checkConfig()
	if cfg.FaultBank >= 0 {
		sys.PCM.FaultBank = cfg.FaultBank
		sys.PCM.FaultExtraLatency = 30 * sim.Nanosecond
	}
	return runConcurrentOn(sys, cfg)
}

func runConcurrentOn(sys config.Config, cfg ConcurrentConfig) ([]Violation, error) {
	eng, err := shard.New(sys, cfg.Scheme, shard.Options{Shards: cfg.Shards})
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	defer eng.Close()

	label := fmt.Sprintf("%s/concurrent shards=%d", cfg.Scheme, cfg.Shards)
	type stripe struct {
		mu  sync.Mutex
		mem map[uint64]ecc.Line
	}
	var stripes [stripeCount]stripe
	for i := range stripes {
		stripes[i].mem = make(map[uint64]ecc.Line)
	}

	var (
		vioMu sync.Mutex
		vios  []Violation
	)
	fail := func(op int, msg string) {
		vioMu.Lock()
		if len(vios) < 32 {
			vios = append(vios, Violation{Engine: label, Op: op, Msg: msg})
		}
		vioMu.Unlock()
	}

	// checkRead compares one engine read against the model entry of its
	// address; the caller holds the address's stripe.
	checkRead := func(opIdx int, addr uint64, res shard.ReadResult, err error) {
		want, wantHit := stripes[addr&(stripeCount-1)].mem[addr]
		switch {
		case err != nil:
			fail(opIdx, fmt.Sprintf("read addr=%d: %v", addr, err))
		case res.Hit != wantHit:
			fail(opIdx, fmt.Sprintf("read addr=%d: hit=%v, model says %v", addr, res.Hit, wantHit))
		case res.Hit && res.Data != want:
			fail(opIdx, fmt.Sprintf("read addr=%d: data diverges from model", addr))
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xrand.New(cfg.Seed + uint64(w)*0x9E37)
			var line ecc.Line
			wops := make([]shard.WriteBatchOp, 0, 8)
			rops := make([]shard.ReadBatchOp, 0, 8)
			// held collects a batch's stripes; lockAll takes them in
			// ascending order and unlockAll releases them.
			var held []uint64
			lockAll := func() {
				slices.Sort(held)
				held = slices.Compact(held)
				for _, i := range held {
					stripes[i].mu.Lock()
				}
			}
			unlockAll := func() {
				for _, i := range held {
					stripes[i].mu.Unlock()
				}
				held = held[:0]
			}
			for i := 0; i < cfg.OpsPerWorker; i++ {
				addr := r.Uint64n(cfg.Addrs)
				st := &stripes[addr&(stripeCount-1)]
				opIdx := w*cfg.OpsPerWorker + i
				switch k := r.Uint64n(10); {
				case k == 7: // batch write
					wops = wops[:2+r.Uint64n(7)]
					for j := range wops {
						wops[j].Addr = r.Uint64n(cfg.Addrs)
						fillLine(&wops[j].Line, r)
						held = append(held, wops[j].Addr&(stripeCount-1))
					}
					lockAll()
					err := eng.WriteBatch(wops)
					for j := range wops {
						// Same-address ops land in slice order, so the
						// last one is the model's value.
						if wops[j].Err != nil {
							fail(opIdx, fmt.Sprintf("batch write addr=%d: %v", wops[j].Addr, wops[j].Err))
						} else {
							stripes[wops[j].Addr&(stripeCount-1)].mem[wops[j].Addr] = wops[j].Line
						}
					}
					if err != nil {
						fail(opIdx, fmt.Sprintf("batch write: %v", err))
					}
					unlockAll()
				case k == 8: // batch read
					rops = rops[:2+r.Uint64n(7)]
					for j := range rops {
						rops[j] = shard.ReadBatchOp{Addr: r.Uint64n(cfg.Addrs)}
						held = append(held, rops[j].Addr&(stripeCount-1))
					}
					lockAll()
					if err := eng.ReadBatch(rops); err != nil {
						fail(opIdx, fmt.Sprintf("batch read: %v", err))
					}
					for j := range rops {
						checkRead(opIdx, rops[j].Addr, rops[j].Res, rops[j].Err)
					}
					unlockAll()
				case k == 9: // async write, then read it back at once
					fillLine(&line, r)
					st.mu.Lock()
					if err := eng.WriteAsync(addr, line); err != nil {
						fail(opIdx, fmt.Sprintf("write addr=%d: %v", addr, err))
					} else {
						st.mem[addr] = line
					}
					res, err := eng.Read(addr)
					checkRead(opIdx, addr, res, err)
					st.mu.Unlock()
				case k < 4: // write
					fillLine(&line, r)
					st.mu.Lock()
					var err error
					if r.Bool(0.5) {
						err = eng.WriteAsync(addr, line)
					} else {
						_, err = eng.Write(addr, line)
					}
					if err != nil {
						fail(opIdx, fmt.Sprintf("write addr=%d: %v", addr, err))
					} else {
						st.mem[addr] = line
					}
					st.mu.Unlock()
				default: // read
					st.mu.Lock()
					res, err := eng.Read(addr)
					checkRead(opIdx, addr, res, err)
					st.mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := eng.Flush(); err != nil {
		return nil, fmt.Errorf("check: flush: %w", err)
	}

	// Post-quiescence sweep: with the workers gone, every model entry must
	// read back exactly.
	lastOp := cfg.Workers * cfg.OpsPerWorker
	for i := range stripes {
		for addr, want := range stripes[i].mem {
			res, err := eng.Read(addr)
			switch {
			case err != nil:
				fail(lastOp, fmt.Sprintf("sweep addr=%d: %v", addr, err))
			case !res.Hit:
				fail(lastOp, fmt.Sprintf("sweep addr=%d: written line lost", addr))
			case res.Data != want:
				fail(lastOp, fmt.Sprintf("sweep addr=%d: data diverges from model", addr))
			}
		}
	}
	for _, msg := range auditShards(eng, make([]counterAudit, eng.NumShards())) {
		fail(lastOp, msg)
	}
	return vios, nil
}
