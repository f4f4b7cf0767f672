package server

import (
	"context"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/telemetry"
)

// nodeHandler executes binary-protocol frames on the node's engine: every
// data op runs under the RequestTimeout bound and the slow-request policy,
// exactly like the HTTP handlers. The bound travels as the trace
// context's deadline rather than as a context per op: the engine arms a
// timer for it only when the op queues behind a busy shard.
type nodeHandler struct{ s *Server }

// batchOpsPool and readOpsPool recycle the engine-side op buffer of one
// batch frame, so the steady-state batch path does not allocate per
// frame. A buffer is recycled as soon as the call returns — safe even
// when the engine call was abandoned on timeout, because the shard engine
// keeps its own sub-batch buffers and never writes into the caller's.
var (
	batchOpsPool = sync.Pool{New: func() any {
		s := make([]shard.WriteBatchOp, MaxBatchOps)
		return &s
	}}
	readOpsPool = sync.Pool{New: func() any {
		s := make([]shard.ReadBatchOp, MaxBatchOps)
		return &s
	}}
)

// frameTrace builds a request's trace context: a nonzero wire ID (the
// cluster router minted it at the fleet edge) is adopted, 0 mints a fresh
// node-local ID. The request's deadline is RequestTimeout after its start.
func (s *Server) frameTrace(trace uint64) telemetry.TraceCtx {
	var tc telemetry.TraceCtx
	if trace != 0 {
		tc = s.eng.AdoptTrace(trace)
	} else {
		tc = s.eng.NewTrace()
	}
	tc.StartNs = time.Now().UnixNano()
	tc.Deadline = tc.StartNs + int64(s.cfg.RequestTimeout)
	return tc
}

func writeResult(out memctrl.WriteOutcome, err error) BatchWriteResult {
	if err != nil {
		return BatchWriteResult{Err: err}
	}
	return BatchWriteResult{
		Dedup:     out.Deduplicated,
		PhysAddr:  out.PhysAddr,
		LatencyNs: out.Breakdown.Total().Nanoseconds(),
	}
}

func readResult(res shard.ReadResult, err error) BatchReadResult {
	if err != nil {
		return BatchReadResult{Err: err}
	}
	return BatchReadResult{Hit: res.Hit, Data: res.Data, LatencyNs: res.Lat.Nanoseconds()}
}

func (h nodeHandler) Write(trace, addr uint64, line ecc.Line) (BatchWriteResult, uint64) {
	s := h.s
	tc := s.frameTrace(trace)
	out, err := s.eng.TryWriteTraced(context.Background(), addr, line, tc)
	s.noteRequest("tcp", "write", tc, addr, time.Since(time.Unix(0, tc.StartNs)), err)
	return writeResult(out, err), tc.TraceID
}

func (h nodeHandler) Read(trace, addr uint64) (BatchReadResult, uint64) {
	s := h.s
	tc := s.frameTrace(trace)
	res, err := s.eng.TryReadTraced(context.Background(), addr, tc)
	s.noteRequest("tcp", "read", tc, addr, time.Since(time.Unix(0, tc.StartNs)), err)
	return readResult(res, err), tc.TraceID
}

// WriteBatch submits the whole frame as one engine batch; per-op flow
// control lands in the records and the frame itself always succeeds.
func (h nodeHandler) WriteBatch(trace uint64, ops []BatchWriteOp, res []BatchWriteResult) (uint64, error) {
	s := h.s
	opsp := batchOpsPool.Get().(*[]shard.WriteBatchOp)
	defer batchOpsPool.Put(opsp)
	sops := (*opsp)[:len(ops)]
	for i := range ops {
		sops[i] = shard.WriteBatchOp{Addr: ops[i].Addr, Line: ops[i].Line}
	}
	tc := s.frameTrace(trace)
	err := s.eng.TryWriteBatchTraced(context.Background(), sops, tc)
	s.noteBatch("tcp", "write-batch", tc, sops, nil, time.Since(time.Unix(0, tc.StartNs)), err)
	for i := range sops {
		res[i] = writeResult(sops[i].Out, sops[i].Err)
	}
	return tc.TraceID, nil
}

// ReadBatch submits the whole frame as one engine batch, like WriteBatch.
func (h nodeHandler) ReadBatch(trace uint64, addrs []uint64, res []BatchReadResult) (uint64, error) {
	s := h.s
	opsp := readOpsPool.Get().(*[]shard.ReadBatchOp)
	defer readOpsPool.Put(opsp)
	sops := (*opsp)[:len(addrs)]
	for i, a := range addrs {
		sops[i].Addr = a
	}
	tc := s.frameTrace(trace)
	err := s.eng.TryReadBatchTraced(context.Background(), sops, tc)
	s.noteBatch("tcp", "read-batch", tc, nil, addrs, time.Since(time.Unix(0, tc.StartNs)), err)
	for i := range sops {
		res[i] = readResult(sops[i].Res, sops[i].Err)
	}
	return tc.TraceID, nil
}

func (h nodeHandler) Flush() error { return h.s.eng.Flush() }

func (h nodeHandler) Stats() (StatsResponse, error) {
	sum, err := h.s.eng.Summary()
	if err != nil {
		return StatsResponse{}, err
	}
	return statsFrom(h.s.eng, sum), nil
}
