package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/esdsim/esd/internal/crypto"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/telemetry"
)

// ladderRows are the layers of the serving path, bottom up. Each row sends
// the same frames into the next layer's public entry point, so the
// difference between adjacent rows is that layer's host self time.
var ladderRows = []string{"memctrl", "esd", "shard", "server", "cluster.r1", "cluster.r2", "cluster.front"}

const frontRow = "cluster.front"

// spanBlock is how many calls the front row sends with spans on before
// switching them off for as many, so the two halves see the same drift.
const spanBlock = 16

// openRow builds a fresh instance of one ladder row with the node's
// telemetry settings.
func openRow(row string, s spec) (layer, error) {
	wire := func(nodes, replication int, front bool) (layer, error) {
		stk, err := bootStack(s, nodes, replication, front)
		if err != nil {
			return nil, err
		}
		if stk.router != nil && !front {
			return newWireLayer(stk.router, s.frame, stk.close), nil
		}
		l, err := stk.dial(s.frame)
		if err != nil {
			return nil, fmt.Errorf("dial: %w (%v)", err, stk.close())
		}
		done := l.done
		l.done = func() error {
			err := done()
			return firstErr(err, stk.close())
		}
		return l, nil
	}
	switch row {
	case "memctrl":
		return newSchemeLayer(s)
	case "esd":
		return newSystemLayer(s)
	case "shard":
		eng, err := shard.New(nodeConfig(s), s.scheme, nodeOptions)
		if err != nil {
			return nil, err
		}
		return &shardLayer{eng: eng, ops: make([]shard.WriteBatchOp, s.frame)}, nil
	case "server":
		return wire(1, 0, false)
	case "cluster.r1":
		return wire(1, 1, false)
	case "cluster.r2":
		return wire(2, 2, false)
	case frontRow:
		return wire(2, 2, true)
	}
	return nil, fmt.Errorf("unknown ladder row %q", row)
}

// span is one timed call into a ladder row.
type span struct {
	row   uint8
	write bool
	n     int32 // ops in the call
	op    int32 // request id: the call's first op index, shared across rows
	start int64 // ns since the traced pass began
	dur   int64 // ns
}

// ladderRun is the outcome of the traced pass.
type ladderRun struct {
	values              map[string]float64
	spans               []span
	ops                 int // measured ops per row
	sent, failed, wrong int
}

// runLadder runs the traced pass: every row on fresh instances from a single
// caller, the warmup untimed and then the measured frames each recorded as
// a span.
func runLadder(s spec, st *stream, p *plan) (*ladderRun, error) {
	measured := p.frames[p.warm : p.warm+p.fixed]
	run := &ladderRun{
		values: map[string]float64{},
		spans:  make([]span, 0, len(ladderRows)*len(measured)),
	}
	for _, f := range measured {
		run.ops += int(f.n)
	}
	shadow := make([]uint64, st.footprint())
	began := time.Now()
	var below [2]float64
	for ri, row := range ladderRows {
		l, err := openRow(row, s)
		if err != nil {
			return nil, fmt.Errorf("%s row: %w", row, err)
		}
		clear(shadow)
		c := newClient(st, p, shadow, s.frame, 0)
		c.l = l
		c.warmup()

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		first := len(run.spans)
		var onDur, offDur time.Duration
		var onOps, offOps int
		for i := 0; i < len(measured); i += spanBlock {
			block := measured[i:min(i+spanBlock, len(measured))]
			traced := row != frontRow || (i/spanBlock)%2 == 0
			t0 := time.Now()
			ops := 0
			for _, f := range block {
				start, d := c.send(f, traced)
				ops += int(f.n)
				if traced {
					run.spans = append(run.spans, span{
						row: uint8(ri), write: f.write, n: f.n, op: f.start,
						start: start.Sub(began).Nanoseconds(), dur: d.Nanoseconds(),
					})
				}
			}
			if traced {
				onDur, onOps = onDur+time.Since(t0), onOps+ops
			} else {
				offDur, offOps = offDur+time.Since(t0), offOps+ops
			}
		}
		runtime.ReadMemStats(&m1)

		if sl, ok := l.(*shardLayer); ok {
			stages, _ := sl.eng.StageSnapshot()
			for i := range stages {
				name := fmt.Sprintf("stage.%s_sim_ns_p50", telemetry.Stage(i))
				run.values[name] = stages[i].Percentile(0.5).Nanoseconds()
			}
		}
		if err := l.close(); err != nil {
			return nil, fmt.Errorf("%s row: close: %w", row, err)
		}
		run.sent += c.sent
		run.failed += c.failed
		run.wrong += c.wrong

		var w, r []float64
		for _, sp := range run.spans[first:] {
			if sp.write {
				w = append(w, float64(sp.dur))
			} else {
				r = append(r, float64(sp.dur))
			}
		}
		slices.Sort(w)
		slices.Sort(r)
		p50 := [2]float64{percentile(w, 0.5), percentile(r, 0.5)}
		run.values[row+".write_ns_p50"] = p50[0]
		run.values[row+".write_ns_p99"] = percentile(w, 0.99)
		run.values[row+".read_ns_p50"] = p50[1]
		run.values[row+".read_ns_p99"] = percentile(r, 0.99)
		run.values[row+".self_write_ns"] = p50[0] - below[0]
		run.values[row+".self_read_ns"] = p50[1] - below[1]
		run.values[row+".allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(run.ops)
		below = p50
		if row == frontRow {
			run.values[frontRow+".span_overhead_frac"] = ratio(onDur.Seconds(), float64(onOps))/ratio(offDur.Seconds(), float64(offOps)) - 1
		}
	}
	run.values["ecc.encode_ns_per_line"], run.values["crypto.encrypt_ns_per_line"] = kernels(p, s.frame)
	return run, nil
}

// kernels times the ECC encode and the batched encryption over the
// measured writes, in groups of the workload's frame size, and returns the
// median ns per line of five passes each.
func kernels(p *plan, size int) (encNs, encryptNs float64) {
	var lines []ecc.Line
	for _, f := range p.frames[p.warm : p.warm+p.fixed] {
		if f.write {
			lines = append(lines, p.lines[f.start:f.start+f.n]...)
		}
	}
	if len(lines) == 0 {
		return 0, 0
	}
	const passes = 5
	ptrs := make([]*ecc.Line, size)
	fps := make([]ecc.Fingerprint, size)
	var enc []float64
	for pass := 0; pass < passes; pass++ {
		t0 := time.Now()
		for i := 0; i < len(lines); i += size {
			k := min(size, len(lines)-i)
			for j := 0; j < k; j++ {
				ptrs[j] = &lines[i+j]
			}
			ecc.EncodeLines(ptrs[:k], fps)
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/float64(len(lines)))
	}

	eng := crypto.NewEngineFromSeed(1)
	scratch := make([]ecc.Line, len(lines))
	bops := make([]crypto.BatchOp, size)
	var cry []float64
	for pass := 0; pass < passes; pass++ {
		copy(scratch, lines)
		t0 := time.Now()
		for i := 0; i < len(scratch); i += size {
			k := min(size, len(scratch)-i)
			for j := 0; j < k; j++ {
				bops[j] = crypto.BatchOp{Addr: uint64(i + j), Line: &scratch[i+j]}
			}
			eng.EncryptBatch(bops[:k])
		}
		cry = append(cry, float64(time.Since(t0).Nanoseconds())/float64(len(lines)))
	}
	return median(enc), median(cry)
}
