package telemetry

import (
	"sync"
	"sync/atomic"
)

// ring is the lossy fixed-size record ring under every FlightRecorder
// (one per shard, one per System, one per router). It always holds the
// last N records and never blocks or allocates on the record path: a
// writer claims the next sequence number with one atomic add, then
// publishes the slot under a per-slot try-lock. Only a concurrent snapshot
// can hold a slot's lock, and then the writer drops that one record
// instead of stalling — the dump path pays for the hot path, never the
// reverse. The per-slot mutex (rather than per-field atomics) keeps the
// record cost at three atomic operations however large T is.
//
// Multiple concurrent writers are safe as long as the ring is large
// enough that a writer is not lapped mid-record.
type ring[T any] struct {
	mask  uint64
	seq   atomic.Uint64
	slots []ringSlot[T]
}

// ringSlot is one entry, guarded by mu. seq names the record the slot
// holds (0 = never written), so a reader can tell a live record from one
// overwritten during its scan.
type ringSlot[T any] struct {
	mu  sync.Mutex
	seq uint64
	rec T
}

// newRing builds a ring of `slots` entries rounded up to a power of two
// (<=0 selects def).
func newRing[T any](slots, def int) ring[T] {
	if slots <= 0 {
		slots = def
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return ring[T]{mask: uint64(n - 1), slots: make([]ringSlot[T], n)}
}

// capacity returns the slot count.
func (r *ring[T]) capacity() int { return len(r.slots) }

// held returns how many records the ring currently holds.
func (r *ring[T]) held() int {
	n := r.seq.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// claim takes the next sequence number and returns its slot locked, for
// the writer to fill in place and unlock. It returns nil when a
// concurrent snapshot holds the slot: the record is dropped, and its
// sequence number shows up as a gap.
func (r *ring[T]) claim() *ringSlot[T] {
	n := r.seq.Add(1)
	s := &r.slots[n&r.mask]
	if !s.mu.TryLock() {
		return nil
	}
	s.seq = n
	return s
}

// put appends one record (see claim).
func (r *ring[T]) put(rec T) {
	if s := r.claim(); s != nil {
		s.rec = rec
		s.mu.Unlock()
	}
}

// skip advances the sequence past n records that were never put, as if
// each had been put and then overwritten by the records put after it.
func (r *ring[T]) skip(n uint64) { r.seq.Add(n) }

// snapshot calls emit with a copy of every live record, oldest first. It
// may run concurrently with writers: a slot overwritten between the
// sequence read and the slot lock is skipped rather than emitted torn or
// duplicated.
func (r *ring[T]) snapshot(emit func(seq uint64, rec *T)) {
	end := r.seq.Load()
	start := uint64(1)
	if n := uint64(len(r.slots)); end > n {
		start = end - n + 1
	}
	for i := start; i <= end; i++ {
		s := &r.slots[i&r.mask]
		s.mu.Lock()
		if s.seq != i {
			s.mu.Unlock()
			continue // overwritten by a newer record, or never completed
		}
		rec := s.rec
		s.mu.Unlock()
		emit(i, &rec)
	}
}
