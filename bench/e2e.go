package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/media"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/shard"
)

// client is one closed-loop caller: it sends its plan's frames one at a
// time, waiting for each reply, and checks every read against the shadow.
type client struct {
	st     *stream
	plan   *plan
	shadow []uint64
	buf    *frameBuf
	l      layer

	writeLat, readLat latencies

	// sent, failed and wrong count every op this client sent; window counts
	// the ops of recorded frames only.
	sent, failed, wrong, window int
	err                         error
	pos                         int // measured frames sent (see sendUntil)
}

func newClient(st *stream, p *plan, shadow []uint64, size, samples int) *client {
	return &client{
		st: st, plan: p, shadow: shadow, buf: newFrameBuf(size),
		writeLat: newLatencies(samples), readLat: newLatencies(samples),
	}
}

// send executes frame f and checks its replies. When timed it returns the
// call's start and duration; otherwise it reads no clock.
func (c *client) send(f frame, timed bool) (start time.Time, d time.Duration) {
	b := c.buf
	b.resize(int(f.n))
	for i, o := range c.plan.ops[f.start : f.start+f.n] {
		b.addrs[i] = uint64(o.addr)
		if f.write {
			b.lines[i] = c.plan.line(c.st, int(f.start)+i)
		}
	}
	if timed {
		start = time.Now()
	}
	var err error
	if f.write {
		err = c.l.write(b)
	} else {
		err = c.l.read(b)
	}
	if timed {
		d = time.Since(start)
	}
	if err != nil && c.err == nil {
		c.err = err
	}
	c.sent += int(f.n)
	c.check(f.write)
	return start, d
}

// check applies a frame's outcome to the shadow: a write records its
// digest (or marks the address uncertain when it failed), a read must
// match the digest of the last write, or miss when there was none.
func (c *client) check(write bool) {
	b := c.buf
	for i, a := range b.addrs {
		switch {
		case b.fail[i]:
			c.failed++
			if write {
				c.shadow[a] = unknownDigest
			}
		case write:
			c.shadow[a] = digest(&b.lines[i])
		default:
			switch want := c.shadow[a]; want {
			case unknownDigest:
			case 0:
				if b.hits[i] {
					c.wrong++
				}
			default:
				if !b.hits[i] || digest(&b.lines[i]) != want {
					c.wrong++
				}
			}
		}
	}
}

// record sends frame f and keeps its round trip as a window sample.
func (c *client) record(f frame) {
	_, d := c.send(f, true)
	if f.write {
		c.writeLat.add(int64(d))
	} else {
		c.readLat.add(int64(d))
	}
	c.window += int(f.n)
}

// warmup sends the plan's warmup frames untimed.
func (c *client) warmup() {
	for _, f := range c.plan.frames[:c.plan.warm] {
		c.send(f, false)
	}
}

// sendUntil records the frames after warmup, from where the last call
// stopped, until limit frames have been sent in all or the deadline passes.
// Past the end of the plan it cycles back through the measured frames.
func (c *client) sendUntil(limit int, deadline time.Time) {
	measured := c.plan.frames[c.plan.warm:]
	for len(measured) > 0 && c.pos < limit && time.Now().Before(deadline) {
		c.record(measured[c.pos%len(measured)])
		c.pos++
	}
}

// parallel runs fn on every client at once and returns the elapsed time.
func parallel(clients []*client, fn func(c *client)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

// simTotals are the simulated-clock counters of every node, summed.
type simTotals struct {
	scheme              memctrl.SchemeStats
	writeSum, readSum   float64 // simulated service time, ps
	writeN, readN       uint64
	energy              float64 // nJ
	devWrites, devReads uint64
	hybrid              media.HybridStats
}

func takeSim(engines []*shard.Engine) (simTotals, error) {
	var t simTotals
	for _, e := range engines {
		sum, err := e.Summary()
		if err != nil {
			return t, err
		}
		t.scheme = t.scheme.Add(sum.Scheme)
		t.writeSum += sum.WriteHist.Sum()
		t.readSum += sum.ReadHist.Sum()
		t.writeN += sum.WriteHist.Count()
		t.readN += sum.ReadHist.Count()
		t.energy += sum.Energy.Total()
		t.devWrites += sum.DeviceWrites
		t.devReads += sum.DeviceReads
		if h, ok := e.HybridStats(); ok {
			t.hybrid.DRAMHits += h.DRAMHits
			t.hybrid.DRAMMisses += h.DRAMMisses
			t.hybrid.Promotions += h.Promotions
			t.hybrid.Demotions += h.Demotions
			t.hybrid.Writebacks += h.Writebacks
			t.hybrid.WALAppends += h.WALAppends
		}
	}
	return t, nil
}

func (t simTotals) sub(b simTotals) simTotals {
	return simTotals{
		scheme:    t.scheme.Sub(b.scheme),
		writeSum:  t.writeSum - b.writeSum,
		readSum:   t.readSum - b.readSum,
		writeN:    t.writeN - b.writeN,
		readN:     t.readN - b.readN,
		energy:    t.energy - b.energy,
		devWrites: t.devWrites - b.devWrites,
		devReads:  t.devReads - b.devReads,
		hybrid: media.HybridStats{
			DRAMHits:   t.hybrid.DRAMHits - b.hybrid.DRAMHits,
			DRAMMisses: t.hybrid.DRAMMisses - b.hybrid.DRAMMisses,
			Promotions: t.hybrid.Promotions - b.hybrid.Promotions,
			Demotions:  t.hybrid.Demotions - b.hybrid.Demotions,
			Writebacks: t.hybrid.Writebacks - b.hybrid.Writebacks,
			WALAppends: t.hybrid.WALAppends - b.hybrid.WALAppends,
		},
	}
}

// queueSampler samples every shard queue's depth every 10 ms while on.
type queueSampler struct {
	engines  []*shard.Engine
	stop     chan struct{}
	done     chan struct{}
	sum, n   float64
	maxDepth int
}

func (q *queueSampler) start() {
	q.stop, q.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(q.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				for _, e := range q.engines {
					for _, l := range e.QueueLens() {
						q.sum += float64(l)
						q.n++
						q.maxDepth = max(q.maxDepth, l)
					}
				}
			}
		}
	}()
}

func (q *queueSampler) halt() {
	close(q.stop)
	<-q.done
}

// ratio is a/b, or 0 when b is 0 (a counter the workload never touches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eRun is the outcome of the end-to-end pass.
type e2eRun struct {
	values  map[string]float64
	clients []*client
}

// runE2E boots the deployment setups times (reporting the median boot
// plus warmup as setup_s), then measures the last one: a fixed-count window
// whose end is the barrier for the simulated-clock and memory metrics, then
// time-bounded traffic until the window reaches cfg.seconds of host time.
func runE2E(s spec, st *stream, plans *[2]plan, cfg runConfig, ref *echoRef) (*e2eRun, error) {
	shadow := make([]uint64, st.footprint())
	var clients []*client
	for c := range plans {
		p := &plans[c]
		// Room for a 20 s window at about three times the rate the
		// fixed-count part was sized for; past that, recording allocates.
		samples := 4*p.fixed + 1024
		clients = append(clients, newClient(st, p, shadow, s.frame, samples))
	}
	// The harness's own memory is allocated by now; live_heap_mb is the
	// growth over this baseline, i.e. what the stack holds.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc

	var stk *stack
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		clear(shadow)
		t0 := time.Now()
		var err error
		stk, err = bootStack(s, 2, 2, true)
		if err != nil {
			return nil, err
		}
		for _, c := range clients {
			if c.l, err = stk.dial(s.frame); err != nil {
				closeClients(clients)
				return nil, fmt.Errorf("dial front: %w (%v)", err, stk.close())
			}
		}
		parallel(clients, (*client).warmup)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			closeClients(clients)
			if err := stk.close(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		closeClients(clients)
		_ = stk.close() // the measurement is complete; a slow drain changes nothing
	}()
	if cfg.corruptShadow {
		corrupt(&plans[0], shadow)
	}

	base, err := takeSim(stk.engines)
	if err != nil {
		return nil, err
	}
	statusBase := stk.front.Status()
	shedBase := shed(stk.engines)
	q := &queueSampler{engines: stk.engines}
	var gc0, gc1, gc2, gc3 runtime.MemStats

	// The window is a run of traffic slices of at most a second, each
	// followed by a quarter second of the echo reference with the stack
	// idle. A slice's round trips and duration are scaled by the runner's
	// speed measured right after it (see echoRef); host is the slices'
	// total, nominal the same at nominal speed.
	var host, nominal time.Duration
	var speeds []float64
	slice := func(limit func(c *client) int, d time.Duration) error {
		from := make([][2]int, len(clients))
		for i, c := range clients {
			from[i] = [2]int{len(c.writeLat), len(c.readLat)}
		}
		deadline := time.Now().Add(d)
		q.start()
		took := parallel(clients, func(c *client) { c.sendUntil(limit(c), deadline) })
		q.halt()
		rate, err := ref.rate(refSlice)
		speed := rate / refNominal
		for i, c := range clients {
			c.writeLat[from[i][0]:].scale(speed)
			c.readLat[from[i][1]:].scale(speed)
		}
		host += took
		nominal += time.Duration(float64(took) * speed)
		speeds = append(speeds, speed)
		return err
	}

	runtime.ReadMemStats(&gc0)
	for !fixedDone(clients) {
		if err := slice(func(c *client) int { return c.plan.fixed }, trafficSlice); err != nil {
			return nil, fmt.Errorf("echo reference: %w", err)
		}
	}
	runtime.ReadMemStats(&gc1)

	// Barrier: every client is idle, so the summaries and the heap are
	// exactly those of warmup plus the fixed-count window.
	fixed, err := takeSim(stk.engines)
	if err != nil {
		return nil, err
	}
	sim := fixed.sub(base)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) - float64(baseHeap)

	runtime.ReadMemStats(&gc2)
	window := time.Duration(cfg.seconds * float64(time.Second))
	for rest := window - host; rest > 10*time.Millisecond; rest = window - host {
		if err := slice(func(*client) int { return math.MaxInt }, min(rest, trafficSlice)); err != nil {
			return nil, fmt.Errorf("echo reference: %w", err)
		}
	}
	runtime.ReadMemStats(&gc3)

	status := stk.front.Status()
	var ops int
	var writes, reads []latencies
	for _, c := range clients {
		ops += c.window
		writes = append(writes, c.writeLat)
		reads = append(reads, c.readLat)
	}
	w, r := sorted(writes...), sorted(reads...)
	engineOps := float64(sim.scheme.Writes + sim.scheme.Reads)
	h := sim.hybrid
	v := map[string]float64{
		"ops_per_s":              float64(ops) / nominal.Seconds(),
		"write_mean_us":          mean(w) / 1e3,
		"read_mean_us":           mean(r) / 1e3,
		"setup_s":                median(setupTimes) * median(speeds),
		"live_heap_mb":           liveHeap / (1 << 20),
		"sim_write_ns_mean":      ratio(sim.writeSum, float64(sim.writeN)) / 1e3,
		"sim_read_ns_mean":       ratio(sim.readSum, float64(sim.readN)) / 1e3,
		"dedup_rate":             ratio(float64(sim.scheme.DedupWrites), float64(sim.scheme.Writes)),
		"media_writes_per_write": ratio(float64(sim.devWrites), float64(sim.scheme.Writes)),
		"energy_nj_per_op":       ratio(sim.energy, engineOps),

		"memctrl.efit_hit_rate":           ratio(float64(sim.scheme.FPCacheHits), float64(sim.scheme.FPCacheHits+sim.scheme.FPCacheMisses)),
		"memctrl.compare_reads_per_write": ratio(float64(sim.scheme.CompareReads), float64(sim.scheme.Writes)),
		"memctrl.compare_mismatch_rate":   ratio(float64(sim.scheme.CompareMismatches), float64(sim.scheme.CompareReads)),
		"media.device_reads_per_read":     ratio(float64(sim.devReads), float64(sim.scheme.Reads)),
		"media.dram_hit_rate":             ratio(float64(h.DRAMHits), float64(h.DRAMHits+h.DRAMMisses)),
		"media.wal_appends_per_write":     ratio(float64(h.WALAppends), float64(sim.scheme.Writes)),
		"media.promotions_per_kop":        ratio(1e3*float64(h.Promotions), engineOps),
		"media.demotions_per_kop":         ratio(1e3*float64(h.Demotions), engineOps),
		"media.writebacks_per_kop":        ratio(1e3*float64(h.Writebacks), engineOps),

		"shard.queue_len_mean": ratio(q.sum, q.n),
		"shard.queue_len_max":  float64(q.maxDepth),
		"shard.shed":           float64(shed(stk.engines) - shedBase),

		"cluster.retries":      float64(status.Retries - statusBase.Retries),
		"cluster.failovers":    float64(status.Failovers - statusBase.Failovers),
		"cluster.read_repairs": float64(status.ReadRepairs - statusBase.ReadRepairs),

		"client.write_p50_us":  percentile(w, 0.5) / 1e3,
		"client.read_p50_us":   percentile(r, 0.5) / 1e3,
		"client.write_p99_us":  percentile(w, 0.99) / 1e3,
		"client.read_p99_us":   percentile(r, 0.99) / 1e3,
		"client.write_p999_us": percentile(w, 0.999) / 1e3,
		"client.read_p999_us":  percentile(r, 0.999) / 1e3,
		"client.ops_per_s_raw": float64(ops) / host.Seconds(),
		"client.echo_per_s":    median(speeds) * refNominal,
		"client.gc_pause_ms":   float64(gc1.PauseTotalNs-gc0.PauseTotalNs+gc3.PauseTotalNs-gc2.PauseTotalNs) / 1e6,
	}
	return &e2eRun{values: v, clients: clients}, nil
}

// Window slicing: traffic runs in slices of at most trafficSlice, each
// followed by refSlice of the echo reference.
const (
	trafficSlice = time.Second
	refSlice     = 250 * time.Millisecond
)

// fixedDone reports whether every client has sent its fixed-count window.
func fixedDone(clients []*client) bool {
	for _, c := range clients {
		if c.pos < c.plan.fixed {
			return false
		}
	}
	return true
}

func shed(engines []*shard.Engine) uint64 {
	var n uint64
	for _, e := range engines {
		n += e.Shed()
	}
	return n
}

func closeClients(clients []*client) {
	for _, c := range clients {
		if c.l != nil {
			_ = c.l.close()
			c.l = nil
		}
	}
}

// corrupt flips the shadow digest of the first address p reads in its
// fixed-count window before writing it, so that read must be reported
// wrong. It proves the correctness check can fail.
func corrupt(p *plan, shadow []uint64) {
	written := map[uint32]bool{}
	for _, f := range p.frames[p.warm : p.warm+p.fixed] {
		for _, o := range p.ops[f.start : f.start+f.n] {
			if f.write {
				written[o.addr] = true
			} else if !written[o.addr] {
				shadow[o.addr] ^= 1
				return
			}
		}
	}
}
