package memctrl

import (
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/sim"
)

// BatchWrite is one write of a batched write call. Out is filled in by the
// scheme: batch writes report the same WriteOutcome the scalar path would.
type BatchWrite struct {
	Logical uint64
	Data    *ecc.Line
	At      sim.Time
	Out     WriteOutcome
}

// BatchWriter is implemented by schemes with a batched write path that
// amortizes the fixed per-line kernel costs (ECC fingerprinting, AES pad
// generation) across all lines of a batch. A batched call must be
// observably identical to issuing the same writes through Write in order:
// same data, same mappings, same counters, same statistics.
type BatchWriter interface {
	WriteBatch(ops []BatchWrite)
}

// WriteBatch drives ops through the scheme's batched write path when it
// has one, falling back to the scalar path otherwise (DeWrite's
// speculative pipeline has no batch form).
func WriteBatch(s Scheme, ops []BatchWrite) {
	if bw, ok := s.(BatchWriter); ok {
		bw.WriteBatch(ops)
		return
	}
	WriteBatchFallback(s, ops)
}

// ReadPrefetcher is implemented by schemes that can touch the metadata a
// run of reads will probe before the first of them runs (dedup.Base). The
// touch must be inert — it moves no statistic, recency tick, device
// timing or telemetry — so the reads that follow run
// exactly as they would without it, only with their host cache misses
// already overlapped.
type ReadPrefetcher interface {
	PrefetchReads(logical []uint64)
}

// PrefetchReads runs s's read touch stage over logical when it has one.
func PrefetchReads(s Scheme, logical []uint64) {
	if p, ok := s.(ReadPrefetcher); ok {
		p.PrefetchReads(logical)
	}
}

// WriteBatchFallback loops ops through the scalar write path.
func WriteBatchFallback(s Scheme, ops []BatchWrite) {
	for i := range ops {
		ops[i].Out = s.Write(ops[i].Logical, ops[i].Data, ops[i].At)
	}
}
