// Batched submission: one sub-batch per touched shard instead of one
// request per op, run inline on an idle shard and queued (one round trip)
// on a busy one. Write sub-batches execute through the scheme's batched
// write path (memctrl.WriteBatch) so unique stores share one batched AES
// pass; read sub-batches run each op through the scalar read body, so the
// simulated clock advances exactly as for the same reads issued one by
// one. This is the engine-level half of the batch-throughput path; the
// wire half (batched TCP frames) sits on top of it in internal/server.
package shard

import (
	"context"
	"sync"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/telemetry"
)

// WriteBatchOp is one write in an Engine.WriteBatch call. The caller
// fills Addr and Line; the engine fills Out, Lat and Err.
type WriteBatchOp struct {
	// Addr is the global logical line address.
	Addr uint64
	// Line is the 64-byte payload.
	Line ecc.Line
	// Out is the scheme's outcome, valid when Err is nil.
	Out memctrl.WriteOutcome
	// Lat is the simulated service latency, valid when Err is nil.
	Lat sim.Time
	// Err is nil on success, ErrOverloaded when the owning shard's queue
	// was full (Try variant), ErrClosed after Close, or the context error
	// when the call was abandoned before this op's sub-batch completed.
	Err error
}

// ReadBatchOp is one read in an Engine.ReadBatch call. The caller fills
// Addr; the engine fills Res and Err.
type ReadBatchOp struct {
	// Addr is the global logical line address.
	Addr uint64
	// Res is the completed read, valid when Err is nil.
	Res ReadResult
	// Err follows the WriteBatchOp.Err contract.
	Err error
}

// subBatch is the per-shard slice of one batched call: shard-local ops,
// plus the caller slots to scatter outcomes back to. The worker writes
// outcomes only into the sub-batch, never into caller memory, so a Try
// caller that abandons the wait may return while the worker is still
// executing. Write lines are the one exception to the copy rule: for Try
// calls they are private copies, but a blocking WriteBatch cannot return
// before every sub-batch completes, so its sub-batches alias the caller's
// lines directly (schemes treat the line as read-only and encrypt into
// scheme-owned scratch), saving a 64-byte copy per op.
type subBatch struct {
	slots []int

	// Writes (kWriteBatch).
	ops   []memctrl.BatchWrite
	lines []ecc.Line
	lats  []sim.Time

	// Reads (kReadBatch): shard-local addresses in, results out.
	addrs []uint64
	reads []ReadResult
}

func (b *subBatch) reset() {
	b.slots = b.slots[:0]
	b.ops = b.ops[:0]
	b.lines = b.lines[:0]
	b.lats = b.lats[:0]
	b.addrs = b.addrs[:0]
	b.reads = b.reads[:0]
}

// subBatchPool recycles sub-batch buffers so steady-state batched calls
// stay allocation-free. Like respChanPool, an abandoned sub-batch must
// NOT be recycled: the worker still writes outcomes into it.
var subBatchPool = sync.Pool{New: func() any { return new(subBatch) }}

// batchPlan is the per-call grouping scratch: one sub-batch slot per
// shard, the touched shards in first-touch order, and — once dispatched —
// each touched shard's response channel and outcome.
type batchPlan struct {
	subs  []*subBatch
	used  []int
	chans []chan response
	// errs[j] is the outcome of sub-batch used[j]: nil when it executed,
	// the submit error when it never reached the queue, or the context
	// error when the caller stopped waiting for it.
	errs []error
}

var batchPlanPool = sync.Pool{New: func() any { return new(batchPlan) }}

// newPlan borrows a plan sized for this engine's shards.
func (e *Engine) newPlan() *batchPlan {
	p := batchPlanPool.Get().(*batchPlan)
	if cap(p.subs) < len(e.shards) {
		p.subs = make([]*subBatch, len(e.shards))
	}
	p.subs = p.subs[:len(e.shards)]
	return p
}

// sub returns shard sh's sub-batch, borrowing one on first touch.
func (p *batchPlan) sub(sh int) *subBatch {
	sb := p.subs[sh]
	if sb == nil {
		sb = subBatchPool.Get().(*subBatch)
		p.subs[sh] = sb
		p.used = append(p.used, sh)
	}
	return sb
}

// dispatch starts every sub-batch as one request of kind k — inline on
// an idle shard, one after another, queued on a busy one — then waits for
// the queued ones in submission order. A nil ctx blocks on full queues
// and waits for every sub-batch; otherwise a full queue fails that
// sub-batch alone with ErrOverloaded, and ctx expiring or tc's deadline
// passing abandons the waits still pending. The deadline's timer is armed
// only when a sub-batch queued. It returns the first ErrClosed or context
// error.
func (e *Engine) dispatch(ctx context.Context, p *batchPlan, k kind, tc telemetry.TraceCtx) error {
	var firstErr error
	queued := false
	for _, sh := range p.used {
		_, ch, err := e.start(sh, request{kind: k, tc: tc, batch: p.subs[sh]}, ctx == nil)
		if err == ErrClosed && firstErr == nil {
			firstErr = err
		}
		p.chans = append(p.chans, ch)
		p.errs = append(p.errs, err)
		queued = queued || ch != nil
	}
	if !queued {
		return firstErr
	}

	w := startWait(ctx, tc.Deadline)
	defer w.stop()
	var abandon error
	for j, ch := range p.chans {
		if ch == nil {
			continue
		}
		if abandon == nil {
			if _, abandon = w.recv(ch); abandon == nil {
				putRespChan(ch)
				p.chans[j] = nil
				continue
			}
			if firstErr == nil {
				firstErr = abandon
			}
		}
		// Abandoned: the worker still executes this sub-batch and sends
		// into ch later, so neither the channel nor the buffer may be
		// recycled. The channel stays in p.chans to mark the buffer as
		// the worker's.
		p.errs[j] = abandon
	}
	return firstErr
}

// release returns the plan, and every sub-batch the worker no longer
// owns, to their pools.
func (p *batchPlan) release() {
	for j, sh := range p.used {
		if p.chans[j] == nil {
			sb := p.subs[sh]
			sb.reset()
			subBatchPool.Put(sb)
		}
		p.subs[sh] = nil
	}
	clear(p.chans)
	clear(p.errs)
	p.used = p.used[:0]
	p.chans = p.chans[:0]
	p.errs = p.errs[:0]
	batchPlanPool.Put(p)
}

// WriteBatch stores every op in one call. Ops are grouped by owning
// shard and each touched shard receives one sub-batch, so N ops cost at
// most one channel round trip per touched shard instead of N; each sub-batch
// runs through the scheme's batched write path, amortizing the AES pad
// generation across the batch. Ops land on their shard in slice order
// (per-shard FIFO holds against surrounding scalar requests). Blocks
// while any touched shard's queue is full and until every sub-batch has
// executed. Per-op results are written into ops; ErrClosed is reflected
// both per op and as the return value.
func (e *Engine) WriteBatch(ops []WriteBatchOp) error {
	return e.writeBatch(nil, ops, telemetry.TraceCtx{})
}

// TryWriteBatch is WriteBatch with load shedding and a deadline (see
// TryWriteBatchTraced).
func (e *Engine) TryWriteBatch(ctx context.Context, ops []WriteBatchOp) error {
	return e.writeBatch(ctx, ops, telemetry.TraceCtx{})
}

// TryWriteBatchTraced is WriteBatch with shedding and a deadline: ops
// owned by a shard whose queue is full fail individually with
// ErrOverloaded (the rest proceed), and ctx expiring or tc.Deadline
// passing while sub-batches are in flight abandons the wait — the shards
// still execute the writes; the abandoned ops report the context error.
// tc tags every op of the batch with one shared trace context.
func (e *Engine) TryWriteBatchTraced(ctx context.Context, ops []WriteBatchOp, tc telemetry.TraceCtx) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.writeBatch(ctx, ops, tc)
}

// writeBatch is the write side of the batched path; a nil ctx means block.
func (e *Engine) writeBatch(ctx context.Context, ops []WriteBatchOp, tc telemetry.TraceCtx) error {
	if len(ops) == 0 {
		return nil
	}
	p := e.newPlan()
	blocking := ctx == nil
	for i := range ops {
		sb := p.sub(e.ShardOf(ops[i].Addr))
		sb.ops = append(sb.ops, memctrl.BatchWrite{Logical: e.localAddr(ops[i].Addr)})
		if !blocking {
			sb.lines = append(sb.lines, ops[i].Line)
		}
		sb.slots = append(sb.slots, i)
		sb.lats = append(sb.lats, 0)
	}
	// Data pointers are installed only once a sub-batch stops growing
	// (append may move the lines backing array). Blocking calls alias the
	// caller's lines instead — see subBatch.
	for _, sh := range p.used {
		sb := p.subs[sh]
		for k := range sb.ops {
			if blocking {
				sb.ops[k].Data = &ops[sb.slots[k]].Line
			} else {
				sb.ops[k].Data = &sb.lines[k]
			}
		}
	}
	err := e.dispatch(ctx, p, kWriteBatch, tc)
	for j, sh := range p.used {
		sb := p.subs[sh]
		for k, slot := range sb.slots {
			if ops[slot].Err = p.errs[j]; ops[slot].Err == nil {
				ops[slot].Out = sb.ops[k].Out
				ops[slot].Lat = sb.lats[k]
			}
		}
	}
	p.release()
	return err
}

// ReadBatch fetches every op's line in one call, grouped by owning shard
// exactly like WriteBatch: one sub-batch per touched shard. Each read
// runs through the same body as a scalar Read — one arrival tick,
// one scheme read — so a batch reads what, and costs in simulated time
// what, the same reads issued one by one would. Reads observe every
// earlier write to their shard (per-shard FIFO). Blocks like WriteBatch;
// per-op results are written into ops.
func (e *Engine) ReadBatch(ops []ReadBatchOp) error {
	return e.readBatch(nil, ops, telemetry.TraceCtx{})
}

// TryReadBatchTraced is ReadBatch with shedding and a deadline, with the
// same per-sub-batch contract as TryWriteBatchTraced.
func (e *Engine) TryReadBatchTraced(ctx context.Context, ops []ReadBatchOp, tc telemetry.TraceCtx) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.readBatch(ctx, ops, tc)
}

// readBatch is the read side of the batched path; a nil ctx means block.
func (e *Engine) readBatch(ctx context.Context, ops []ReadBatchOp, tc telemetry.TraceCtx) error {
	if len(ops) == 0 {
		return nil
	}
	p := e.newPlan()
	for i := range ops {
		sb := p.sub(e.ShardOf(ops[i].Addr))
		sb.addrs = append(sb.addrs, e.localAddr(ops[i].Addr))
		sb.slots = append(sb.slots, i)
		sb.reads = append(sb.reads, ReadResult{})
	}
	err := e.dispatch(ctx, p, kReadBatch, tc)
	for j, sh := range p.used {
		sb := p.subs[sh]
		for k, slot := range sb.slots {
			if ops[slot].Err = p.errs[j]; ops[slot].Err == nil {
				ops[slot].Res = sb.reads[k]
			}
		}
	}
	p.release()
	return err
}
