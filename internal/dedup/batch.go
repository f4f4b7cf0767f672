// Deferred-store machinery for the batch write kernels.
//
// Baseline, Dedup_SHA1 and ESD write through one kernel each, which takes
// a batch (a scalar Write is a one-op batch). The kernel runs the per-line
// decision sequence in op order, with counters committed the moment a
// write is accepted, but defers the two costs worth amortizing:
// one-time-pad generation (batched through crypto.XorPadBatch) and the
// device write itself. Committing counters at decision time is what
// preserves the pad-uniqueness invariant: within one batch a physical line
// can be freed by a later op's remap and handed out again by the
// allocator, and a counter reserved lazily at flush time would be computed
// against the wrong map state. Everything the decision needs (allocation,
// AMT update, refcounts, integrity, statistics) happens eagerly; only the
// pad XOR and Device.Write wait for the flush, so a unique store's data
// line reaches the device after its AMT and integrity-tree updates.
package dedup

import (
	"github.com/esdsim/esd/internal/crypto"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/sparse"
)

// PendingStore is one deferred unique store: the counter is committed, the
// mapping installed, but the pad XOR and device write have not happened
// yet. Wr is filled by Deferred.Flush.
type PendingStore struct {
	// Logical is the logical address the store serves.
	Logical uint64
	// Phys is the physical line the ciphertext will land on.
	Phys uint64
	// Counter is the write counter committed at decision time.
	Counter uint64
	// At is the device-write issue time.
	At sim.Time
	// Slot is the caller's batch index, so outcomes can be finalized after
	// the flush.
	Slot int
	// Tag and Aux carry scheme-private finalization state (e.g. the
	// telemetry decision, or SHA1's fingerprint summary for the posted
	// metadata write).
	Tag uint8
	Aux uint64
	// Data holds the plaintext copy; Flush encrypts it in place.
	Data ecc.Line
	// Wr is the device write result, valid after Flush.
	Wr nvm.WriteResult
}

// Deferred accumulates pending unique stores for one batch; each entry
// holds its own copy of the line, which Flush encrypts in place, so a
// batch kernel needs no other scratch line. The scratch slices are reused
// across batches, so steady-state writes are allocation-free. inFlight
// indexes the pending physical lines as a sparse membership set: Has is
// called once per EFIT-hit compare, and with batches of a few hundred ops
// a linear rescan per compare went quadratic. Has fills the set lazily,
// so a batch that never asks (Baseline's, SHA1's, and a one-op batch,
// whose compare runs before its own store is deferred) never touches it.
type Deferred struct {
	pending  []PendingStore
	padOps   []crypto.BatchOp
	inFlight sparse.Map[bool]
	indexed  int // pending[:indexed] are in inFlight
}

// Defer queues a pending store. The plaintext is copied; the caller's line
// may be reused immediately.
func (d *Deferred) Defer(p PendingStore) {
	d.pending = append(d.pending, p)
}

// Has reports whether phys has a pending (unflushed) store.
func (d *Deferred) Has(phys uint64) bool {
	for ; d.indexed < len(d.pending); d.indexed++ {
		d.inFlight.Set(d.pending[d.indexed].Phys, true)
	}
	_, ok := d.inFlight.Get(phys)
	return ok
}

// Len reports the number of pending stores.
func (d *Deferred) Len() int { return len(d.pending) }

// Flush generates every pending pad through one batched AES pass and
// issues the device writes in original op order, filling each entry's Wr.
// The caller finalizes outcomes from Entries and then calls Reset.
func (d *Deferred) Flush(env *memctrl.Env) {
	if len(d.pending) == 0 {
		return
	}
	if cap(d.padOps) < len(d.pending) {
		d.padOps = make([]crypto.BatchOp, len(d.pending))
	}
	ops := d.padOps[:len(d.pending)]
	for i := range d.pending {
		p := &d.pending[i]
		ops[i] = crypto.BatchOp{Addr: p.Phys, Counter: p.Counter, Line: &p.Data}
	}
	env.Crypto.XorPadBatch(ops)
	for i := range d.pending {
		p := &d.pending[i]
		p.Wr = env.Device.Write(p.Phys, &p.Data, p.At)
	}
}

// Entries returns the flushed stores for outcome finalization.
func (d *Deferred) Entries() []PendingStore { return d.pending }

// Reset clears the batch, keeping the scratch capacity.
func (d *Deferred) Reset() {
	for i := range d.pending[:d.indexed] {
		d.inFlight.Delete(d.pending[i].Phys)
	}
	d.pending = d.pending[:0]
	d.indexed = 0
}

// StoreUniqueDeferred is StoreUnique with the pad generation and device
// write deferred into def: it allocates the physical line, commits the
// write counter, installs the mapping and charges the same energy and
// statistics at the same point of the op order, and queues the store. The
// returned mapLat is the visible metadata latency; the media-side outcome
// fields come from the flushed entry's Wr.
func (b *Base) StoreUniqueDeferred(def *Deferred, logical uint64, data *ecc.Line, at sim.Time, slot int, tag uint8, aux uint64) (phys uint64, mapLat sim.Time) {
	phys = b.Alloc.Alloc()
	counter := b.Env.Crypto.ReserveCounter(phys)
	b.Env.Energy.Crypto += b.Env.Cfg.Crypto.EncryptEnergy
	b.Env.Step(memctrl.StepCounterBumped)
	def.Defer(PendingStore{
		Logical: logical, Phys: phys, Counter: counter,
		At: at, Slot: slot, Tag: tag, Aux: aux, Data: *data,
	})
	mapLat = b.MapWrite(logical, phys, at)
	mapLat += b.Env.IntegrityUpdate(phys, counter, at)
	b.St.UniqueWrites++
	return phys, mapLat
}
