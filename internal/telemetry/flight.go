package telemetry

import "github.com/esdsim/esd/internal/sim"

// FlightRecorder is a fixed-size ring that always holds the last N
// completed requests with their per-stage latency vectors — a black box
// that can be dumped after the fact (on error, on SIGQUIT, or via the
// /debug/flightrecorder endpoint) to explain what the pipeline was doing
// when something went slow or wrong.
//
// Recording is allocation-free and never blocks (see ring). The intended
// topology is one recorder per shard, written only by the shard's owner
// (single writer), plus one behind a System's sink, which stages its
// records and moves them in when it publishes (flightStage).
type FlightRecorder struct {
	ring ring[flightRec]
}

// flightRec is one raw ring entry.
type flightRec struct {
	trace  uint64
	addr   uint64
	phys   uint64
	kind   byte
	shard  int32
	flag   bool // dedup for writes, hit for reads
	at     sim.Time
	lat    sim.Time
	stages StageTimes
}

const (
	flightKindWrite = 0
	flightKindRead  = 1
)

// DefaultFlightSlots is the ring size used when none is given.
const DefaultFlightSlots = 256

// NewFlightRecorder builds a recorder holding the last `slots` records,
// rounded up to a power of two (<=0 selects DefaultFlightSlots).
func NewFlightRecorder(slots int) *FlightRecorder {
	return &FlightRecorder{ring: newRing[flightRec](slots, DefaultFlightSlots)}
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
		s.rec.setWrite(shard, tc, addr, phys, dedup, at, lat, st)
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

// setWrite fills r with one completed write (st may be nil).
func (r *flightRec) setWrite(shard int, tc TraceCtx, addr, phys uint64, dedup bool, at, lat sim.Time, st *StageTimes) {
	r.trace, r.addr, r.phys, r.kind, r.shard, r.flag, r.at, r.lat =
		tc.TraceID, addr, phys, flightKindWrite, int32(shard), dedup, at, lat
	if st != nil {
		r.stages = *st
	} else {
		r.stages = StageTimes{}
	}
}

// setRead fills r with one completed read.
func (r *flightRec) setRead(shard int, tc TraceCtx, addr uint64, hit bool, at, lat sim.Time) {
	r.trace, r.addr, r.phys, r.kind, r.shard, r.flag, r.at, r.lat, r.stages =
		tc.TraceID, addr, 0, flightKindRead, int32(shard), hit, at, lat, StageTimes{}
}

// flightStage stages flight records in owner memory in front of a
// FlightRecorder, for an owner that publishes on demand (a System's
// sink): a record costs plain stores instead of the ring's three atomic
// operations, and flush moves what was staged since the last flush into
// the recorder. The shards record straight into their recorders instead,
// so a dump shows a wedged shard's last records without waiting on a
// publication. The zero value, with no recorder, records nothing.
type flightStage struct {
	f    *FlightRecorder
	recs []flightRec // one per ring slot
	n    uint64      // records staged
	done uint64      // records flushed
}

func newFlightStage(f *FlightRecorder) flightStage {
	if f == nil {
		return flightStage{}
	}
	return flightStage{f: f, recs: make([]flightRec, f.Cap())}
}

// next returns the slot of the next staged record (owner only).
func (st *flightStage) next() *flightRec {
	r := &st.recs[st.n&uint64(len(st.recs)-1)]
	st.n++
	return r
}

// write stages one completed write (owner only; a no-op without a
// recorder).
func (st *flightStage) write(tc TraceCtx, addr, phys uint64, dedup bool, at, lat sim.Time, stages *StageTimes) {
	if st.f != nil {
		st.next().setWrite(0, tc, addr, phys, dedup, at, lat, stages)
	}
}

// read stages one completed read (owner only; a no-op without a
// recorder).
func (st *flightStage) read(tc TraceCtx, addr uint64, hit bool, at, lat sim.Time) {
	if st.f != nil {
		st.next().setRead(0, tc, addr, hit, at, lat)
	}
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

// FlightRecord is one decoded flight-recorder entry, shaped for JSON
// exposition (/debug/flightrecorder) and offline analysis. Latencies are
// simulated nanoseconds.
type FlightRecord struct {
	// Seq orders records within one recorder (ascending = older to newer).
	Seq uint64 `json:"seq"`
	// Trace is the originating request's trace ID (0 = untraced traffic).
	Trace uint64 `json:"trace,omitempty"`
	Kind  string `json:"kind"` // "write" or "read"
	Shard int    `json:"shard"`
	Addr  uint64 `json:"addr"`
	// Phys is the physical line backing a write — the freshly written line,
	// or the existing shared line for a deduplicated write. Always 0 for
	// reads.
	Phys uint64 `json:"phys,omitempty"`
	// Dedup (writes) and Hit (reads) carry the outcome flag.
	Dedup bool    `json:"dedup,omitempty"`
	Hit   bool    `json:"hit,omitempty"`
	AtNs  float64 `json:"at_ns"`
	LatNs float64 `json:"lat_ns"`
	// StagesNs is the per-stage latency decomposition (writes only; zero
	// stages are omitted).
	StagesNs map[string]float64 `json:"stages_ns,omitempty"`
}

// Snapshot decodes the ring's current contents, oldest first. It allocates
// (it is the cold dump path) and may be called concurrently with writers
// (see ring.snapshot).
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	out := make([]FlightRecord, 0, f.ring.held())
	f.ring.snapshot(func(seq uint64, s *flightRec) {
		rec := FlightRecord{
			Seq:   seq,
			Trace: s.trace,
			Shard: int(s.shard),
			Addr:  s.addr,
			AtNs:  s.at.Nanoseconds(),
			LatNs: s.lat.Nanoseconds(),
		}
		if s.kind == flightKindRead {
			rec.Kind = "read"
			rec.Hit = s.flag
		} else {
			rec.Kind = "write"
			rec.Dedup = s.flag
			rec.Phys = s.phys
			for j, d := range s.stages {
				if d > 0 {
					if rec.StagesNs == nil {
						rec.StagesNs = make(map[string]float64, NumStages)
					}
					rec.StagesNs[Stage(j).String()] = d.Nanoseconds()
				}
			}
		}
		out = append(out, rec)
	})
	return out
}
