package main

import (
	"fmt"
	"math"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/workload"
	"github.com/esdsim/esd/internal/xrand"
)

// spec is one traffic mix: an application profile, the scheme every node
// runs, the request frame shape, and the sizing of its fixed-count window.
type spec struct {
	name    string
	scheme  string
	profile string
	// footprint overrides the profile's address space (lines); 0 keeps it.
	footprint int
	// frame is the number of ops per request frame (1 = scalar requests).
	frame int
	// dramBytes is each node's DRAM buffer (esd+caram only).
	dramBytes int64
	// fixedOps is the fixed-count part of the window, over which the
	// simulated-clock metrics and the heap are read. It is fixed so those
	// metrics do not depend on host speed or on -seconds, and sized to take
	// about half of a 20 s window at the rate the stack completed when the
	// benchmark was defined, so it ends inside the window on a slower run
	// too.
	fixedOps int
}

// specs are the workloads; BENCHMARK.json records why each was chosen.
var specs = []spec{
	// Scalar requests on a footprint that fits the SRAM caches, mostly
	// duplicates: the scheme does little, the serving path dominates.
	{name: "lbm-scalar", scheme: "esd", profile: "lbm", frame: 1, fixedOps: 220_000},
	// 64-op frames over 1 Mi lines (64 MiB, 128x the 512 KiB EFIT/AMT
	// caches): the network cost is split 64 ways, the scheme's unique path
	// and AMT misses show. Its fixed part is the smallest share of the
	// window, to keep the state it stores, and the process, under half a
	// gigabyte.
	{name: "namd-batch64", scheme: "esd", profile: "namd", footprint: 1 << 20, frame: 64, fixedOps: 600_000},
	// The lbm-scalar frame shape on the hybrid tier: 1 Mi lines against a
	// 16 MiB DRAM buffer per node, so the hot set churns.
	{name: "dedup-caram", scheme: "esd+caram", profile: "dedup", footprint: 1 << 20, frame: 1, dramBytes: 16 << 20, fixedOps: 260_000},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// op is one generated request, kept compact (8 bytes) so a multi-million op
// stream stays small: the line is materialized from its content id only
// when the op is sent.
type op struct {
	addr    uint32
	content uint32 // content id in the generator's pool; readOp marks a read
}

const readOp = math.MaxUint32

func (o op) isWrite() bool { return o.content != readOp }

// stream is a workload's op sequence plus the generator that turns content
// ids back into lines.
type stream struct {
	gen *workload.Generator
	ops []op
}

// newStream draws n ops from the profile's generator, the one
// workload.Stream wraps: Zipf addresses, the profile's write ratio, and
// contents from the exact duplicate schedule. Only the inter-arrival clock
// is dropped, since the benchmark's clients run a closed loop.
func newStream(s spec, seed uint64, n int) (*stream, error) {
	p, ok := workload.ByName(s.profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", s.profile)
	}
	if s.footprint > 0 {
		p.FootprintLines = s.footprint
	}
	if p.FootprintLines > math.MaxUint32 {
		return nil, fmt.Errorf("footprint %d does not fit 32-bit addresses", p.FootprintLines)
	}
	gen := workload.NewGenerator(p, seed, int(float64(n)*p.WriteRatio)+1)
	rw := xrand.New(seed ^ 0xB3C4_0001)
	ops := make([]op, n)
	for i := range ops {
		ops[i].addr = uint32(gen.SampleAddr())
		ops[i].content = readOp
		if rw.Bool(p.WriteRatio) {
			id := gen.SampleWriteContent()
			if id >= readOp {
				return nil, fmt.Errorf("content id %d does not fit 32 bits", id)
			}
			ops[i].content = uint32(id)
		}
	}
	return &stream{gen: gen, ops: ops}, nil
}

// line materializes a write op's payload.
func (s *stream) line(o op) ecc.Line { return s.gen.Content(uint64(o.content)) }

// footprint is the address-space size in lines (the shadow's length).
func (s *stream) footprint() int { return s.gen.Profile().FootprintLines }

// connOf assigns an address to one of two client connections by the top
// bit of a murmur3 finalizer. The ring (splitmix64) and the shards (a mod 4)
// partition by other functions of the address, so each connection still
// reaches every shard of both nodes, and owning its addresses outright
// keeps its shadow exact.
func connOf(addr uint64) int {
	x := addr
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x >> 63)
}

// frame is a run of ops of one kind sent as one request.
type frame struct {
	start int32 // index of the first op in the plan's op slice
	n     int32
	write bool
}

// plan is the op sequence one caller sends, grouped into frames and split
// into segments: warmup frames, then the fixed-count window, then the rest,
// which the time-bounded part of the window cycles through.
type plan struct {
	ops    []op
	frames []frame
	warm   int // frames in the warmup prefix
	fixed  int // frames in the fixed-count window after it
	// lines, when set, holds every op's payload up front, so sending
	// allocates nothing and allocs_per_op counts only the layer's own.
	lines []ecc.Line
}

// line is the payload of the plan's i'th op, a write.
func (p *plan) line(st *stream, i int) ecc.Line {
	if p.lines != nil {
		return p.lines[i]
	}
	return st.line(p.ops[i])
}

// appendSegment groups ops into frames of at most size ops of one kind and
// appends them to p. A frame never reorders two ops on one address: a read
// of an address with a pending write flushes the write frame first, and a
// write to an address with a pending read flushes the read frame.
func (p *plan) appendSegment(ops []op, size int) int {
	before := len(p.frames)
	var pend [2][]op // [0] reads, [1] writes
	flush := func(write bool) {
		k := 0
		if write {
			k = 1
		}
		if len(pend[k]) == 0 {
			return
		}
		p.frames = append(p.frames, frame{start: int32(len(p.ops)), n: int32(len(pend[k])), write: write})
		p.ops = append(p.ops, pend[k]...)
		pend[k] = pend[k][:0]
	}
	pending := func(k int, addr uint32) bool {
		for _, o := range pend[k] {
			if o.addr == addr {
				return true
			}
		}
		return false
	}
	for _, o := range ops {
		k := 0
		if o.isWrite() {
			k = 1
		}
		if pending(1-k, o.addr) {
			flush(k == 0)
		}
		pend[k] = append(pend[k], o)
		if len(pend[k]) == size {
			flush(k == 1)
		}
	}
	flush(true)
	flush(false)
	return len(p.frames) - before
}

// connPlans splits the stream across the two connections: ops [0, warm) are
// the warmup, [warm, warm+fixed) the fixed-count window, the rest the tail.
func connPlans(ops []op, warm, fixed, size int) [2]plan {
	var plans [2]plan
	bounds := [4]int{0, warm, warm + fixed, len(ops)}
	for seg := 0; seg < 3; seg++ {
		var mine [2][]op
		for _, o := range ops[bounds[seg]:bounds[seg+1]] {
			c := connOf(uint64(o.addr))
			mine[c] = append(mine[c], o)
		}
		for c := range plans {
			n := plans[c].appendSegment(mine[c], size)
			switch seg {
			case 0:
				plans[c].warm = n
			case 1:
				plans[c].fixed = n
			}
		}
	}
	return plans
}

// ladderPlan is the traced pass's plan: one caller sends the warmup and
// then the first measured ops of the whole stream, payloads materialized.
func ladderPlan(st *stream, warm, measured, size int) plan {
	var p plan
	p.warm = p.appendSegment(st.ops[:warm], size)
	p.fixed = p.appendSegment(st.ops[warm:warm+measured], size)
	p.lines = make([]ecc.Line, len(p.ops))
	for i, o := range p.ops {
		if o.isWrite() {
			p.lines[i] = st.line(o)
		}
	}
	return p
}

// Shadow digests: 0 means never written, unknownDigest means a write to
// the address failed so its content is uncertain until the next write.
const unknownDigest = math.MaxUint64

// digest is the shadow's 64-bit summary of a line; it is never 0 or
// unknownDigest.
func digest(l *ecc.Line) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < ecc.WordsPerLine; i++ {
		h = (h ^ l.Word(i)) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	if h == 0 || h == unknownDigest {
		h = 1
	}
	return h
}
