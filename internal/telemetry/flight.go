package telemetry

import (
	"strconv"
	"time"

	"github.com/esdsim/esd/internal/sim"
)

// Kind names what a record describes. The kinds fall into two layers,
// each with its own clock: the engine kinds (a shard's or a System's
// requests, and the rare events of a System's trace file) are stamped in
// simulated time, the router kinds — one per Hop — in wall-clock time.
type Kind uint8

// Record kinds.
const (
	// KindWrite and KindRead are one completed engine request.
	KindWrite Kind = iota
	KindRead
	// KindEFITEvict, KindCrash and the run markers are the rare engine
	// events a System's trace file carries besides its sampled requests.
	// No ring holds them.
	KindEFITEvict
	KindCrash
	KindRunStart
	KindRunMeasure
	KindRunEnd
	// kindHop is the first router kind: kindHop+h records hop h.
	kindHop
)

// hopKind is the router kind that records hop h.
func hopKind(h Hop) Kind { return kindHop + Kind(h) }

// router reports whether k is a router kind.
func (k Kind) router() bool { return k >= kindHop }

// String implements fmt.Stringer; the names are the records' "kind" values.
func (k Kind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindRead:
		return "read"
	case KindEFITEvict:
		return "efit-evict"
	case KindCrash:
		return "crash"
	case KindRunStart:
		return "run-start"
	case KindRunMeasure:
		return "run-measure"
	case KindRunEnd:
		return "run-end"
	default:
		return Hop(k - kindHop).String()
	}
}

// rec is one raw record: a ring slot's payload and a trace file's unit.
// Which fields a record fills depends on its kind (see decode); the layout
// keeps it at 120 bytes, so a ring slot with its lock and sequence is 136.
type rec struct {
	trace  uint64
	addr   uint64
	phys   uint64
	at     int64 // picoseconds for an engine record, Unix nanoseconds for a router one
	lat    int64 // picoseconds for an engine record, nanoseconds for a router one
	stages StageTimes
	text   *string // a router record's node, or a run marker's detail
	n      uint16  // the shard, a router record's attempt, or an efit-evict's or ctr-overflow's count
	kind   Kind
	flag   bool // dedup for writes, hit for reads
	op     byte // the protocol op a router record served
	status byte // the protocol status a router record resolved to
	dec    Decision
}

// setWrite fills r with one completed write (st may be nil).
func (r *rec) setWrite(shard int, tc TraceCtx, d Decision, addr, phys uint64, dedup bool, at, lat sim.Time, st *StageTimes) {
	r.trace, r.addr, r.phys, r.at, r.lat, r.text = tc.TraceID, addr, phys, int64(at), int64(lat), nil
	r.n, r.kind, r.flag, r.op, r.status, r.dec = uint16(shard), KindWrite, dedup, 0, 0, d
	if st != nil {
		r.stages = *st
	} else {
		r.stages = StageTimes{}
	}
}

// setRead fills r with one completed read.
func (r *rec) setRead(shard int, tc TraceCtx, addr uint64, hit bool, at, lat sim.Time) {
	r.trace, r.addr, r.phys, r.at, r.lat, r.text = tc.TraceID, addr, 0, int64(at), int64(lat), nil
	r.n, r.kind, r.flag, r.op, r.status, r.dec = uint16(shard), KindRead, hit, 0, 0, DecNone
	r.stages = StageTimes{}
}

// Record is one decoded record, the JSON that /debug/flightrecorder serves
// (a node's and a System's shard rings, a router's hop ring) and a
// System's trace file holds, one per line. Fields a kind does not use are
// omitted.
type Record struct {
	// Seq orders records within the ring or trace file that holds them
	// (ascending = older to newer).
	Seq uint64 `json:"seq"`
	// Layer is "engine" (a shard's or a System's scheme) or "router".
	Layer string `json:"layer"`
	// Clock names the clock of AtNs and LatNs: "sim" (simulated time) for
	// engine records, "wall" for router records.
	Clock string `json:"clock"`
	// Kind is "write" or "read", a rare engine event ("efit-evict",
	// "crash", "run-start", "run-measure", "run-end"), or a router hop
	// ("route", "attempt", ...).
	Kind string `json:"kind"`
	// Trace is the originating request's trace ID (0 = untraced traffic).
	Trace uint64 `json:"trace,omitempty"`
	// Shard is the engine shard that served a request (omitted for 0).
	Shard int `json:"shard,omitempty"`
	// Node is the backend a router record touched ("" for router-local
	// records).
	Node string `json:"node,omitempty"`
	// Op is the data op a router record served: "write", "read",
	// "write-batch", "read-batch", or "" for control traffic.
	Op string `json:"op,omitempty"`
	// Addr is the logical line.
	Addr uint64 `json:"addr"`
	// Phys is the physical line backing a write — the freshly written
	// line, or the shared line of a deduplicated write — or an evicted
	// EFIT entry's fingerprint.
	Phys uint64 `json:"phys,omitempty"`
	// Decision is a System write's verdict (see Decision); shard records
	// leave it out.
	Decision string `json:"decision,omitempty"`
	// Dedup (writes) and Hit (reads) carry the outcome flag.
	Dedup bool `json:"dedup,omitempty"`
	Hit   bool `json:"hit,omitempty"`
	// Attempt is a router record's 0-based attempt on its node (a batch
	// route's sub-batch count).
	Attempt int `json:"attempt,omitempty"`
	// Status is the protocol status a router record resolved to (omitted
	// when OK).
	Status int `json:"status,omitempty"`
	// Detail carries a rare event's context (an evicted entry's reference
	// count, a run marker's note).
	Detail string `json:"detail,omitempty"`
	// AtNs is when the record's span began and LatNs how long it took, in
	// nanoseconds on Clock: simulated time since the engine started, or
	// Unix time for a router record (a float64, so exact to 256 ns).
	AtNs  float64 `json:"at_ns"`
	LatNs float64 `json:"lat_ns"`
	// StagesNs is a write's per-stage latency decomposition (nil when
	// every stage is zero).
	StagesNs *StageNs `json:"stages_ns,omitempty"`
}

// StageNs is a write's latency per Stage, in nanoseconds on the record's
// clock. The fields run in stage-name order and zero stages are omitted,
// so the JSON is what a map keyed by Stage.String() encodes to, without
// the map encoder's per-record key sort.
type StageNs struct {
	AMT         float64 `json:"amt,omitempty"`
	EFIT        float64 `json:"efit,omitempty"`
	Encrypt     float64 `json:"encrypt,omitempty"`
	Fingerprint float64 `json:"fingerprint,omitempty"`
	FPNVMM      float64 `json:"fp-nvmm,omitempty"`
	Media       float64 `json:"media,omitempty"`
	NVMVerify   float64 `json:"nvm-verify,omitempty"`
	Queue       float64 `json:"queue,omitempty"`
}

// decode turns raw record r, numbered seq, into its Record: the one place
// a raw record's fields get their meaning.
func (r *rec) decode(seq uint64) Record {
	out := Record{Seq: seq, Kind: r.kind.String(), Trace: r.trace, Addr: r.addr, Phys: r.phys}
	if r.kind.router() {
		out.Layer, out.Clock = "router", "wall"
		out.Op, out.Attempt, out.Status = opName(r.op), int(r.n), int(r.status)
		if r.text != nil {
			out.Node = *r.text
		}
		out.AtNs, out.LatNs = float64(r.at), float64(r.lat)
		return out
	}
	out.Layer, out.Clock = "engine", "sim"
	out.AtNs, out.LatNs = sim.Time(r.at).Nanoseconds(), sim.Time(r.lat).Nanoseconds()
	switch r.kind {
	case KindWrite:
		out.Shard, out.Dedup = int(r.n), r.flag
		if r.dec != DecNone {
			out.Decision = r.dec.String()
		}
		ns := func(st Stage) float64 { return max(r.stages[st], 0).Nanoseconds() }
		stages := StageNs{AMT: ns(StageAMT), EFIT: ns(StageEFIT), Encrypt: ns(StageEncrypt),
			Fingerprint: ns(StageFingerprint), FPNVMM: ns(StageFPNVMM), Media: ns(StageMedia),
			NVMVerify: ns(StageNVMVerify), Queue: ns(StageQueue)}
		if stages != (StageNs{}) {
			out.StagesNs = &stages
		}
	case KindRead:
		out.Shard, out.Hit = int(r.n), r.flag
	case KindEFITEvict:
		out.Detail = "ref=" + strconv.Itoa(int(r.n))
	default:
		if r.text != nil {
			out.Detail = *r.text
		}
	}
	return out
}

// opName maps protocol op bytes onto the names a router record exposes.
func opName(op byte) string {
	switch op {
	case 'W':
		return "write"
	case 'R':
		return "read"
	case 'B':
		return "write-batch"
	case 'b':
		return "read-batch"
	case 0:
		return ""
	default:
		return string(rune(op))
	}
}

// FlightRecorder is a fixed-size ring that always holds the last N
// records — a black box that can be dumped after the fact (on error, on
// SIGQUIT, or via the /debug/flightrecorder endpoint) to explain what a
// layer was doing when something went slow or wrong.
//
// Recording is allocation-free and never blocks (see ring). The intended
// topology is one recorder per shard, written only by the shard's owner;
// one behind a System's sink, which stages its records and moves them in
// when it publishes (flightStage); and one per router, written by every
// goroutine that routes a request.
type FlightRecorder struct {
	ring ring[rec]
}

// DefaultFlightSlots is the ring size used when none is given.
const DefaultFlightSlots = 256

// DefaultHopSlots is the router ring's default size: a routed request
// records several hops (the route, and a checkout and an attempt per
// node), so it defaults larger than a shard's.
const DefaultHopSlots = 1024

// NewFlightRecorder builds a recorder holding the last `slots` records,
// rounded up to a power of two (<=0 selects DefaultFlightSlots).
func NewFlightRecorder(slots int) *FlightRecorder {
	return &FlightRecorder{ring: newRing[rec](slots, DefaultFlightSlots)}
}

// Cap returns the ring capacity (0 for nil).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return f.ring.capacity()
}

// Len returns how many records are currently held (0 for nil).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return f.ring.held()
}

// RecordWrite appends one completed write. phys is the backing physical
// line the write landed on (it locates the serving bank, which the logical
// address does not after remapping). Nil-safe and allocation-free.
func (f *FlightRecorder) RecordWrite(shard int, tc TraceCtx, addr, phys uint64, dedup bool, at, lat sim.Time, st *StageTimes) {
	if f == nil {
		return
	}
	// Filled in place: a record is too large to build and copy per write
	// (BenchmarkSinkOnWrite/flight: about 40 ns in place, 60 by value).
	if s := f.ring.claim(); s != nil {
		s.rec.setWrite(shard, tc, DecNone, addr, phys, dedup, at, lat, st)
		s.mu.Unlock()
	}
}

// RecordRead appends one completed read. Nil-safe and allocation-free.
func (f *FlightRecorder) RecordRead(shard int, tc TraceCtx, addr uint64, hit bool, at, lat sim.Time) {
	if f == nil {
		return
	}
	if s := f.ring.claim(); s != nil {
		s.rec.setRead(shard, tc, addr, hit, at, lat)
		s.mu.Unlock()
	}
}

// RecordHop appends one router hop that began at wall-clock time at
// (UnixNano) and took lat. op is the protocol op byte ('W', 'R', 'B',
// 'b'; 0 for control traffic), node the backend it touched (nil for
// router-local hops; the recorder keeps the pointer, so the name must not
// change), attempt the 0-based attempt on that node and status the
// protocol status byte it resolved to (0 = OK). Nil-safe and
// allocation-free; safe for concurrent writers.
func (f *FlightRecorder) RecordHop(h Hop, trace uint64, op byte, node *string, addr uint64, attempt int, status byte, at int64, lat time.Duration) {
	if f == nil {
		return
	}
	f.ring.put(rec{
		trace: trace, addr: addr, at: at, lat: lat.Nanoseconds(), text: node,
		n: uint16(attempt), kind: hopKind(h), op: op, status: status,
	})
}

// Snapshot decodes the ring's current contents, oldest first. It allocates
// (it is the cold dump path) and may be called concurrently with writers
// (see ring.snapshot).
func (f *FlightRecorder) Snapshot() []Record {
	if f == nil {
		return nil
	}
	out := make([]Record, 0, f.ring.held())
	f.ring.snapshot(func(seq uint64, r *rec) {
		out = append(out, r.decode(seq))
	})
	return out
}

// flightStage stages a System sink's records in owner memory, one per
// request, in front of its flight recorder and its trace file: a record
// costs plain stores instead of the ring's three atomic operations. flush
// moves what was staged since the last flush into the recorder; render
// hands every sampled record the tracer has not yet seen to the tracer,
// and runs before a record would overwrite one the tracer has not seen.
// The shards record straight into their recorders instead, so a dump
// shows a wedged shard's last records without waiting on a publication.
// The zero value, with neither recorder nor tracer, records nothing.
type flightStage struct {
	f     *FlightRecorder
	t     *Tracer
	every uint64 // the tracer renders every every-th request
	recs  []rec  // one per ring slot
	n     uint64 // records staged
	done  uint64 // records flushed
	drawn uint64 // records the tracer has seen
	shown uint64 // records rendered, rare ones included
}

// newFlightStage stages for recorder f and tracer t, either of which may be
// nil; the stage is f's size, or DefaultFlightSlots without f.
func newFlightStage(f *FlightRecorder, t *Tracer, every int) flightStage {
	if f == nil && t == nil {
		return flightStage{}
	}
	slots := DefaultFlightSlots
	if f != nil {
		slots = f.Cap()
	}
	return flightStage{f: f, t: t, every: uint64(max(every, 1)), recs: make([]rec, slots)}
}

// next returns the slot of the next staged record (owner only).
func (st *flightStage) next() *rec {
	if st.t != nil && st.n-st.drawn == uint64(len(st.recs)) {
		st.render()
	}
	r := &st.recs[st.n&uint64(len(st.recs)-1)]
	st.n++
	return r
}

// write stages one completed write (owner only; a no-op without a
// recorder or a tracer).
func (st *flightStage) write(tc TraceCtx, d Decision, addr, phys uint64, dedup bool, at, lat sim.Time, stages *StageTimes) {
	if st.recs != nil {
		st.next().setWrite(0, tc, d, addr, phys, dedup, at, lat, stages)
	}
}

// read stages one completed read (owner only; a no-op without a recorder
// or a tracer).
func (st *flightStage) read(tc TraceCtx, addr uint64, hit bool, at, lat sim.Time) {
	if st.recs != nil {
		st.next().setRead(0, tc, addr, hit, at, lat)
	}
}

// render hands the tracer every sampled record staged since the last
// render (owner only).
func (st *flightStage) render() {
	if st.t == nil {
		return
	}
	mask := uint64(len(st.recs) - 1)
	for i := st.drawn; i < st.n; i++ {
		if (i+1)%st.every == 0 {
			st.t.render(&st.recs[i&mask])
			st.shown++
		}
	}
	st.drawn = st.n
}

// emit renders rare record r after the records staged before it (owner
// only; the caller checks for a tracer). No ring holds a rare record.
func (st *flightStage) emit(r rec) {
	st.render()
	st.t.render(&r)
	st.shown++
}

// flush appends the records staged since the last flush to the recorder
// (owner only). Records overwritten before a flush still take their
// sequence numbers, so the recorder numbers and holds exactly what it
// would had it taken every record itself.
func (st *flightStage) flush() {
	if st.f == nil {
		return
	}
	mask := uint64(len(st.recs) - 1)
	from := st.done
	if st.n-from > mask+1 {
		st.f.ring.skip(st.n - from - (mask + 1))
		from = st.n - (mask + 1)
	}
	for i := from; i < st.n; i++ {
		st.f.ring.put(st.recs[i&mask])
	}
	st.done = st.n
}
