package memctrl

import (
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/sim"
)

// BatchWrite is one write of a batched write call. Out is filled in by the
// scheme.
type BatchWrite struct {
	Logical uint64
	Data    *ecc.Line
	At      sim.Time
	Out     WriteOutcome
}

// BatchWriter is implemented by schemes whose write kernel takes a batch,
// amortizing the fixed per-line kernel costs (ECC fingerprinting, AES pad
// generation) across all lines of it. Baseline, Dedup_SHA1 and ESD have
// this kernel only: their Write runs it over a one-op batch. A batched
// call makes the same decisions as issuing the same writes one op per
// batch, in order: same data, same mappings, same counters, same
// statistics; only device timing may differ, since a batch's stores reach
// the device together.
type BatchWriter interface {
	WriteBatch(ops []BatchWrite)
}

// WriteBatch drives ops through the scheme's batch kernel when it has
// one, and otherwise through its scalar Write op by op (DeWrite's
// speculative pipeline and BCD have no batch form).
func WriteBatch(s Scheme, ops []BatchWrite) {
	if bw, ok := s.(BatchWriter); ok {
		bw.WriteBatch(ops)
		return
	}
	for i := range ops {
		ops[i].Out = s.Write(ops[i].Logical, ops[i].Data, ops[i].At)
	}
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
