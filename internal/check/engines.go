package check

import (
	"fmt"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/experiments"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/sim"
)

// engine is one system variant under differential test. write and audit
// return violation messages (empty = fine); read returns what the variant
// observes so the runner can compare it against the oracle.
type engine interface {
	label() string
	write(addr uint64, line ecc.Line) []string
	// writeBatch applies a run of consecutive writes through the
	// variant's batched path. It must be observably identical to calling
	// write for each item in order; violations carry the item's op index.
	writeBatch(items []batchItem) []opMsg
	read(addr uint64) (ecc.Line, bool, error)
	// readBatch reads a run of addresses through the variant's batched
	// read path into got (len(items) long). It must be observably
	// identical to calling read for each item in order.
	readBatch(items []readItem, got []readGot)
	// crash simulates a power failure; it reports false when the variant
	// has no crash surface (sharded engines).
	crash() bool
	// audit runs the white-box invariant audits on every scheme instance
	// of the variant (see auditScheme).
	audit() []string
	close() error
}

// opMsg is a violation message pinned to an op index.
type opMsg struct {
	op  int
	msg string
}

// issueGap is the simulated time between self-clocked requests, matching
// the root System's default.
const issueGap = 10 * sim.Nanosecond

// singleEngine drives one raw memctrl.Scheme the way the single-threaded
// System does (self-clocked, periodic Tick), with two extra checker-only
// surfaces: the per-write dedup-safety probe and the white-box audits.
type singleEngine struct {
	name string
	env  *memctrl.Env
	sch  memctrl.Scheme

	now      sim.Time
	nextTick sim.Time
	buf      ecc.Line

	// dedupIdentical reports whether a Deduplicated outcome promises the
	// stored line is byte-identical to the written one. True for every
	// scheme except BCD, whose delta writes report the base line as their
	// physical backing while storing a compressed difference elsewhere.
	dedupIdentical bool

	counters counterAudit
}

func newSingleEngine(cfg config.Config, scheme string) (*singleEngine, error) {
	env := memctrl.NewEnv(cfg)
	sch, err := experiments.NewScheme(env, scheme)
	if err != nil {
		return nil, err
	}
	return &singleEngine{
		name:           scheme + "/single",
		env:            env,
		sch:            sch,
		dedupIdentical: scheme != experiments.SchemeBCD,
	}, nil
}

func (e *singleEngine) label() string { return e.name }

// step advances the self-clock and drives due maintenance ticks.
func (e *singleEngine) step() sim.Time {
	e.now += issueGap
	if iv := e.sch.TickInterval(); iv > 0 {
		if e.nextTick == 0 {
			e.nextTick = iv
		}
		for e.nextTick <= e.now {
			e.sch.Tick(e.nextTick)
			e.nextTick += iv
		}
	}
	return e.now
}

func (e *singleEngine) write(addr uint64, line ecc.Line) []string {
	at := e.step()
	e.buf = line
	out := e.sch.Write(addr, &e.buf, at)
	if out.Done > e.now {
		e.now = out.Done
	}
	if !out.Deduplicated || !e.dedupIdentical {
		return nil
	}
	// Dedup safety: the scheme claims an existing physical line already
	// holds exactly these bytes. Decrypt what is actually stored there and
	// call the bluff — this is where an unchecked fingerprint collision
	// (the crafted CollisionDelta lines) would silently corrupt data.
	ct, ok := e.env.Device.Load(out.PhysAddr)
	if !ok {
		return []string{fmt.Sprintf("dedup write addr=%d: phys %d has no stored line", addr, out.PhysAddr)}
	}
	pt := e.env.Crypto.DecryptAt(out.PhysAddr, e.env.Crypto.Counter(out.PhysAddr), &ct)
	if pt != line {
		return []string{fmt.Sprintf("dedup write addr=%d: phys %d stores different content (fingerprint collision accepted)", addr, out.PhysAddr)}
	}
	return nil
}

// writeBatch drives a run of writes through memctrl.WriteBatch — the
// same batched kernel path System.WriteBatch uses — with the
// self-clock advanced per op exactly like the scalar path.
func (e *singleEngine) writeBatch(items []batchItem) []opMsg {
	lines := make([]ecc.Line, len(items))
	batch := make([]memctrl.BatchWrite, len(items))
	for i, it := range items {
		lines[i] = it.line
		batch[i] = memctrl.BatchWrite{Logical: it.addr, Data: &lines[i], At: e.step()}
	}
	memctrl.WriteBatch(e.sch, batch)
	for i := range batch {
		if batch[i].Out.Done > e.now {
			e.now = batch[i].Out.Done
		}
	}
	if !e.dedupIdentical {
		return nil
	}
	// Dedup safety, batched: probe each deduplicated outcome unless a
	// later op in the same batch wrote to that physical line — then the
	// store legitimately holds newer bytes and the scalar-equivalent
	// probe moment has passed.
	var bad []opMsg
	overwrittenLater := make(map[uint64]bool)
	for i := len(batch) - 1; i >= 0; i-- {
		out := batch[i].Out
		if out.Deduplicated && !overwrittenLater[out.PhysAddr] {
			ct, ok := e.env.Device.Load(out.PhysAddr)
			if !ok {
				bad = append(bad, opMsg{items[i].op, fmt.Sprintf("batch dedup write addr=%d: phys %d has no stored line", items[i].addr, out.PhysAddr)})
			} else {
				pt := e.env.Crypto.DecryptAt(out.PhysAddr, e.env.Crypto.Counter(out.PhysAddr), &ct)
				if pt != items[i].line {
					bad = append(bad, opMsg{items[i].op, fmt.Sprintf("batch dedup write addr=%d: phys %d stores different content (fingerprint collision accepted)", items[i].addr, out.PhysAddr)})
				}
			}
		}
		if !out.Deduplicated {
			overwrittenLater[out.PhysAddr] = true
		}
	}
	// Reverse iteration built bad back-to-front; restore op order.
	for l, r := 0, len(bad)-1; l < r; l, r = l+1, r-1 {
		bad[l], bad[r] = bad[r], bad[l]
	}
	return bad
}

func (e *singleEngine) read(addr uint64) (ecc.Line, bool, error) {
	at := e.step()
	out := e.sch.Read(addr, at)
	if out.Done > e.now {
		e.now = out.Done
	}
	return out.Data, out.Hit, nil
}

// readBatch reads op by op: a single engine has no batched read path, and
// the run's self-clocking is exactly the scalar one.
func (e *singleEngine) readBatch(items []readItem, got []readGot) {
	for i, it := range items {
		got[i].line, got[i].hit, got[i].err = e.read(it.addr)
	}
}

func (e *singleEngine) crash() bool {
	c, ok := e.sch.(memctrl.Crasher)
	if !ok {
		return false
	}
	c.Crash(e.now)
	return true
}

func (e *singleEngine) audit() []string { return auditScheme(e.sch, e.env, &e.counters) }

func (e *singleEngine) close() error { return nil }

// auditScheme runs every audit the checker has on one scheme instance:
// AuditScheme, the counter audit against ca's shadow state, and, on the
// hybrid media tier, the tier's own audit (LRU/index consistency,
// capacity bounds, clean residents byte-identical to their PCM homes).
func auditScheme(sch memctrl.Scheme, env *memctrl.Env, ca *counterAudit) []string {
	bad := AuditScheme(sch)
	bad = append(bad, ca.audit(env, sch)...)
	if h := env.Hybrid(); h != nil {
		bad = append(bad, h.Audit()...)
	}
	return bad
}

// counterAudit checks counter-mode pad uniqueness for one scheme instance
// across successive audits: a per-line counter must never decrease, and
// the total counter mass must move in lockstep with the crypto engine's
// encryption count minus the scheme's discarded speculative encryptions.
// A counter that went backwards, or a bump no encryption accounts for,
// would reuse a one-time pad. The zero value starts from a fresh engine.
type counterAudit struct {
	shadow     map[uint64]uint64
	prevSum    uint64
	prevEnc    uint64
	prevWasted uint64
}

func (ca *counterAudit) audit(env *memctrl.Env, sch memctrl.Scheme) []string {
	if ca.shadow == nil {
		ca.shadow = make(map[uint64]uint64)
	}
	var bad []string
	var sum uint64
	env.Crypto.RangeCounters(func(addr, c uint64) bool {
		if prev, ok := ca.shadow[addr]; ok && c < prev {
			bad = append(bad, fmt.Sprintf("counter: line %d went backwards %d -> %d (pad reuse)", addr, prev, c))
		}
		ca.shadow[addr] = c
		sum += c
		return true
	})
	enc, wasted := env.Crypto.Encryptions, sch.Stats().WastedEncryptions
	// Signed deltas, so a counter mass that shrank reads negative.
	dSum, dEnc, dWasted := int64(sum-ca.prevSum), int64(enc-ca.prevEnc), int64(wasted-ca.prevWasted)
	if dSum != dEnc-dWasted {
		bad = append(bad, fmt.Sprintf("counter: counters advanced by %d but engine performed %d encryptions (%d discarded)", dSum, dEnc, dWasted))
	}
	ca.prevSum, ca.prevEnc, ca.prevWasted = sum, enc, wasted
	return bad
}

// auditShards runs auditScheme on every shard of eng, under each shard's
// owner through the engine's barrier, with counters[i] holding shard i's
// counter-audit state. Every message names its shard.
func auditShards(eng *shard.Engine, counters []counterAudit) []string {
	perShard := make([][]string, eng.NumShards())
	err := eng.Barrier(func(id int, sch memctrl.Scheme, env *memctrl.Env) {
		perShard[id] = auditScheme(sch, env, &counters[id])
	})
	if err != nil {
		return []string{fmt.Sprintf("audit barrier: %v", err)}
	}
	var bad []string
	for id, msgs := range perShard {
		for _, m := range msgs {
			bad = append(bad, fmt.Sprintf("shard %d: %s", id, m))
		}
	}
	return bad
}

// Owners of a sharded engine's writes: the axis of the sharded variants.
const (
	ownerQueued = "queued"
	ownerInline = "inline"
)

// shardEngine drives a sharded engine variant, its writes run by one of
// the two owners a shard request can have. A queued engine writes through
// WriteAsync, which always enqueues, so the shard's worker runs the writes
// and drains them in multi-request batches, and the reads queue behind
// them. An inline engine writes through blocking Write, which runs on the
// checker's goroutine whenever the shard is idle. Either way a later read
// of the same address observes the write: same address means same shard,
// and a shard executes its requests in submission order.
type shardEngine struct {
	name     string
	eng      *shard.Engine
	inline   bool
	rops     []shard.ReadBatchOp
	counters []counterAudit
}

func newShardEngine(cfg config.Config, scheme string, shards int, owner string) (*shardEngine, error) {
	eng, err := shard.New(cfg, scheme, shard.Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	return &shardEngine{
		name:     fmt.Sprintf("%s/shards=%d,%s", scheme, shards, owner),
		eng:      eng,
		inline:   owner == ownerInline,
		counters: make([]counterAudit, eng.NumShards()),
	}, nil
}

func (e *shardEngine) label() string { return e.name }

func (e *shardEngine) write(addr uint64, line ecc.Line) []string {
	var err error
	if e.inline {
		_, err = e.eng.Write(addr, line)
	} else {
		err = e.eng.WriteAsync(addr, line)
	}
	if err != nil {
		return []string{fmt.Sprintf("write addr=%d: %v", addr, err)}
	}
	return nil
}

// writeBatch submits a run of writes through the sharded engine's
// batched path (one grouped channel round trip per touched shard).
func (e *shardEngine) writeBatch(items []batchItem) []opMsg {
	ops := make([]shard.WriteBatchOp, len(items))
	for i, it := range items {
		ops[i] = shard.WriteBatchOp{Addr: it.addr, Line: it.line}
	}
	if err := e.eng.WriteBatch(ops); err != nil {
		return []opMsg{{items[0].op, fmt.Sprintf("batch write: %v", err)}}
	}
	var bad []opMsg
	for i := range ops {
		if ops[i].Err != nil {
			bad = append(bad, opMsg{items[i].op, fmt.Sprintf("batch write addr=%d: %v", items[i].addr, ops[i].Err)})
		}
	}
	return bad
}

func (e *shardEngine) read(addr uint64) (ecc.Line, bool, error) {
	res, err := e.eng.Read(addr)
	if err != nil {
		return ecc.Line{}, false, err
	}
	return res.Data, res.Hit, nil
}

// readBatch submits a run of reads through the sharded engine's batched
// path (one grouped channel round trip per touched shard).
func (e *shardEngine) readBatch(items []readItem, got []readGot) {
	ops := e.rops[:0]
	for _, it := range items {
		ops = append(ops, shard.ReadBatchOp{Addr: it.addr})
	}
	e.rops = ops
	_ = e.eng.ReadBatch(ops) // errors are reported per op
	for i := range ops {
		got[i] = readGot{line: ops[i].Res.Data, hit: ops[i].Res.Hit, err: ops[i].Err}
	}
}

func (e *shardEngine) crash() bool { return false }

func (e *shardEngine) audit() []string { return auditShards(e.eng, e.counters) }

func (e *shardEngine) close() error { return e.eng.Close() }
