// Package crypto implements the counter-mode encryption (CME) engine that
// protects every cache line leaving the trusted CPU chip for the NVMM,
// as required by the threat model in §II/§III-E of the ESD paper.
//
// Counter-mode encryption keeps a per-physical-line write counter; the
// one-time pad for a line is AES(key, lineAddr || counter || blockIndex)
// and the ciphertext is plaintext XOR pad. Because the pad depends only on
// (address, counter), it can be generated while the data is still in
// flight, which is what lets the schemes overlap encryption with other
// write-path work. Deduplication runs *before* encryption (DbE), so
// counters are tracked per physical line.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/sparse"
)

// Engine is a counter-mode encryption engine with per-line counters.
// It is not safe for concurrent use; the simulator is single-threaded.
type Engine struct {
	block cipher.Block
	// counters maps physical line -> write counter. Counter lookups sit
	// on every encrypt, decrypt and batch reservation, so the store is a
	// paged sparse array instead of a map.
	counters sparse.Map[uint64]

	// padIn/padOut are the AES block scratch buffers. They live on the
	// (heap-resident) engine rather than the stack because slices of a
	// stack array passed to the cipher.Block interface escape, costing two
	// heap allocations per pad; engine-held scratch makes every
	// encrypt/decrypt allocation-free.
	padIn  [aes.BlockSize]byte
	padOut [aes.BlockSize]byte

	// batchBuf holds the concatenated counter blocks of a batch pad pass
	// (XorPadBatch); grown on demand and reused so steady-state batch
	// encryption is allocation-free.
	batchBuf []byte

	// Stats.
	Encryptions uint64
	Decryptions uint64
}

// NewEngine creates an engine from a 16-, 24- or 32-byte AES key.
func NewEngine(key []byte) (*Engine, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypto: %w", err)
	}
	return &Engine{block: b}, nil
}

// NewEngineFromSeed derives a deterministic 32-byte key from a seed; used
// by the simulator so runs are reproducible.
func NewEngineFromSeed(seed uint64) *Engine {
	var key [32]byte
	s := seed
	for i := 0; i < 4; i++ {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(key[i*8:], z^(z>>31))
	}
	e, err := NewEngine(key[:])
	if err != nil {
		panic(err) // unreachable: key length is fixed at 32
	}
	return e
}

// xorPad XORs the one-time pad for (addr, counter) into line in place,
// turning plaintext into ciphertext and vice versa without materializing
// the pad as a separate 64-byte copy.
func (e *Engine) xorPad(addr, counter uint64, line *ecc.Line) {
	in, out := e.padIn[:], e.padOut[:]
	for blk := 0; blk < ecc.LineSize/aes.BlockSize; blk++ {
		binary.LittleEndian.PutUint64(in[0:8], addr)
		binary.LittleEndian.PutUint64(in[8:16], counter)
		in[15] ^= byte(blk) // distinguish the four 16-byte blocks
		e.block.Encrypt(out, in)
		off := blk * aes.BlockSize
		lo := binary.LittleEndian.Uint64(line[off : off+8])
		hi := binary.LittleEndian.Uint64(line[off+8 : off+16])
		lo ^= binary.LittleEndian.Uint64(out[0:8])
		hi ^= binary.LittleEndian.Uint64(out[8:16])
		binary.LittleEndian.PutUint64(line[off:off+8], lo)
		binary.LittleEndian.PutUint64(line[off+8:off+16], hi)
	}
}

// Counter returns the current write counter of a physical line (0 if the
// line has never been written).
func (e *Engine) Counter(addr uint64) uint64 { return e.counters.Load(addr) }

// EncryptInPlace increments the write counter of addr and replaces line's
// plaintext with the ciphertext under the new counter, returning that
// counter value. The counter increment on every write is what guarantees
// pad uniqueness. This is the steady-state write path: no line copies, no
// allocations.
func (e *Engine) EncryptInPlace(addr uint64, line *ecc.Line) (counter uint64) {
	counter = e.counters.Load(addr) + 1
	e.counters.Set(addr, counter)
	e.xorPad(addr, counter, line)
	e.Encryptions++
	return counter
}

// Encrypt increments the write counter of addr and returns the ciphertext
// of plain under the new counter, together with that counter value. Hot
// paths that can overwrite the buffer should use EncryptInPlace.
func (e *Engine) Encrypt(addr uint64, plain *ecc.Line) (ct ecc.Line, counter uint64) {
	ct = *plain
	counter = e.EncryptInPlace(addr, &ct)
	return ct, counter
}

// EncryptSpeculativeInPlace produces ciphertext in place for the *next*
// counter value of addr without committing the increment. DeWrite encrypts
// in parallel with fingerprinting and discards the work when the line
// turns out to be a duplicate; Commit makes the speculation durable.
func (e *Engine) EncryptSpeculativeInPlace(addr uint64, line *ecc.Line) (counter uint64) {
	counter = e.counters.Load(addr) + 1
	e.xorPad(addr, counter, line)
	e.Encryptions++
	return counter
}

// EncryptSpeculative is EncryptSpeculativeInPlace on a copy of plain.
func (e *Engine) EncryptSpeculative(addr uint64, plain *ecc.Line) (ct ecc.Line, counter uint64) {
	ct = *plain
	counter = e.EncryptSpeculativeInPlace(addr, &ct)
	return ct, counter
}

// Commit makes a speculative encryption durable by storing its counter.
func (e *Engine) Commit(addr, counter uint64) { e.counters.Set(addr, counter) }

// DecryptInPlace replaces ct's ciphertext with the plaintext stored at
// addr under the line's current counter.
func (e *Engine) DecryptInPlace(addr uint64, ct *ecc.Line) {
	e.DecryptAtInPlace(addr, e.counters.Load(addr), ct)
}

// DecryptAtInPlace decrypts in place under an explicit counter value.
func (e *Engine) DecryptAtInPlace(addr, counter uint64, ct *ecc.Line) {
	e.xorPad(addr, counter, ct)
	e.Decryptions++
}

// Decrypt returns the plaintext of ct stored at addr under the line's
// current counter.
func (e *Engine) Decrypt(addr uint64, ct *ecc.Line) ecc.Line {
	return e.DecryptAt(addr, e.counters.Load(addr), ct)
}

// DecryptAt decrypts under an explicit counter value.
func (e *Engine) DecryptAt(addr, counter uint64, ct *ecc.Line) ecc.Line {
	pt := *ct
	e.DecryptAtInPlace(addr, counter, &pt)
	return pt
}

// CounterEntries reports how many per-line counters are live; used for
// metadata-overhead accounting.
func (e *Engine) CounterEntries() int { return e.counters.Len() }

// RangeCounters calls fn for every (line address, write counter) pair
// until fn returns false. Iteration order is unspecified. The checker's
// pad-uniqueness audit snapshots the counters between ops and verifies
// they only ever grow: a counter that repeats would reuse a one-time pad.
func (e *Engine) RangeCounters(fn func(addr, counter uint64) bool) {
	e.counters.Range(fn)
}
