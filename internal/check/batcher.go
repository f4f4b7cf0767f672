package check

import (
	"fmt"
	"math/rand"

	"github.com/esdsim/esd/internal/ecc"
)

// batchItem is one buffered write op awaiting a batched flush. op is its
// index in the generated stream, kept so violations pin to the precise
// op for replay.
type batchItem struct {
	op   int
	addr uint64
	line ecc.Line
}

// readItem is one buffered read op, carrying the oracle's answer as of
// the moment it was generated.
type readItem struct {
	op      int
	addr    uint64
	want    ecc.Line
	wantHit bool
}

// readGot is what an engine variant returned for one read.
type readGot struct {
	line ecc.Line
	hit  bool
	err  error
}

// check compares got against the oracle's answer; "" means they agree.
func (it readItem) check(got readGot) string {
	switch {
	case got.err != nil:
		return fmt.Sprintf("read addr=%d: %v", it.addr, got.err)
	case got.hit != it.wantHit:
		return fmt.Sprintf("read addr=%d: hit=%v, oracle says %v", it.addr, got.hit, it.wantHit)
	case got.hit && got.line != it.want:
		return fmt.Sprintf("read addr=%d: data diverges from oracle (got word0=%#x want %#x)", it.addr, got.line.Word(0), it.want.Word(0))
	}
	return ""
}

// maxPendingBatch bounds a buffered run.
const maxPendingBatch = 16

// batcher buffers runs of consecutive writes and runs of consecutive
// reads, and flushes each run either through the engines' batched APIs or
// op by op, chosen by a seed-derived coin so runs replay exactly. At most
// one kind is pending at a time — a read flushes the pending writes and a
// write the pending reads — so buffering only ever delays an op past
// others of its own kind, and every engine observes exactly the op order
// the oracle applied. With a zero fraction every op flushes on arrival,
// op by op.
type batcher struct {
	frac   float64
	limit  int
	rng    *rand.Rand
	writes []batchItem
	reads  []readItem

	// flushWrites and flushReads apply one run; batched reports the coin.
	flushWrites func(items []batchItem, batched bool)
	flushReads  func(items []readItem, batched bool)
}

func newBatcher(frac float64, seed uint64) *batcher {
	b := &batcher{frac: frac, limit: 1, rng: rand.New(rand.NewSource(int64(seed)*2654435761 + 97))}
	if frac > 0 {
		b.limit = maxPendingBatch
	}
	return b
}

func (b *batcher) coin(n int) bool { return n > 1 && b.rng.Float64() < b.frac }

func (b *batcher) write(it batchItem) {
	b.flushReadRun()
	b.writes = append(b.writes, it)
	if len(b.writes) >= b.limit {
		b.flushWriteRun()
	}
}

func (b *batcher) read(it readItem) {
	b.flushWriteRun()
	b.reads = append(b.reads, it)
	if len(b.reads) >= b.limit {
		b.flushReadRun()
	}
}

// flush applies whatever is pending.
func (b *batcher) flush() {
	b.flushWriteRun()
	b.flushReadRun()
}

func (b *batcher) flushWriteRun() {
	if len(b.writes) == 0 {
		return
	}
	b.flushWrites(b.writes, b.coin(len(b.writes)))
	b.writes = b.writes[:0]
}

func (b *batcher) flushReadRun() {
	if len(b.reads) == 0 {
		return
	}
	b.flushReads(b.reads, b.coin(len(b.reads)))
	b.reads = b.reads[:0]
}
