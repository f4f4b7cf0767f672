// Batch pad generation: the per-line cost of counter-mode encryption is
// four independent cipher.Block.Encrypt calls plus the XOR fold. When a
// batched write (System.WriteBatch, or a shard's write sub-batch from a
// batched client frame) hands the write path N lines at once, the counter
// blocks of all N lines are laid out back to back in one engine-held
// scratch buffer and encrypted in a single tight pass, so the AES
// round-key loads and call overhead amortize across 4×N blocks
// instead of being paid per block. The pad for each 16-byte block is the
// same AES(key, addr || counter || blockIndex) the scalar path computes —
// batch and scalar ciphertexts are bit-identical by construction, which the
// equivalence tests in batch_test.go pin.
package crypto

import (
	"crypto/aes"
	"encoding/binary"

	"github.com/esdsim/esd/internal/ecc"
)

// BatchOp is one line of a batch pad operation. For EncryptBatch, Counter
// is an output (the committed write counter); for DecryptBatch and
// XorPadBatch it is an input.
type BatchOp struct {
	// Addr is the physical line address the pad is keyed on.
	Addr uint64
	// Counter is the write counter the pad is keyed on.
	Counter uint64
	// Line is transformed in place (plaintext XOR pad, or the reverse).
	Line *ecc.Line
}

// ReserveCounter commits the next write counter for addr and returns it,
// with exactly the statistics side effects of EncryptInPlace. Batch write
// paths that defer pad generation (to batch it across the write) call this
// at decision time so counter semantics — and the pad-uniqueness invariant
// the checker audits — are identical to the scalar path: the counter is
// burned the moment the write is accepted, never reused even if the
// physical line is freed and reallocated later in the same batch.
func (e *Engine) ReserveCounter(addr uint64) uint64 {
	counter := e.counters.Load(addr) + 1
	e.counters.Set(addr, counter)
	e.Encryptions++
	return counter
}

// XorPadBatch XORs the one-time pad for each (Addr, Counter) pair into its
// line in place, generating all pads through one multi-block AES pass over
// the concatenated counter blocks. It performs no counter bookkeeping and
// records no statistics: callers either reserved the counters already
// (ReserveCounter) or are decrypting under known counters.
func (e *Engine) XorPadBatch(ops []BatchOp) {
	if len(ops) == 0 {
		return
	}
	need := len(ops) * ecc.LineSize
	if cap(e.batchBuf) < need {
		e.batchBuf = make([]byte, need)
	}
	buf := e.batchBuf[:need]

	// Lay out the 4×N counter blocks contiguously…
	off := 0
	for i := range ops {
		addr, counter := ops[i].Addr, ops[i].Counter
		for blk := 0; blk < ecc.LineSize/aes.BlockSize; blk++ {
			binary.LittleEndian.PutUint64(buf[off:off+8], addr)
			binary.LittleEndian.PutUint64(buf[off+8:off+16], counter)
			buf[off+15] ^= byte(blk) // distinguish the four 16-byte blocks
			off += aes.BlockSize
		}
	}
	// …encrypt them all in one tight pass (keystream generation)…
	for off = 0; off < need; off += aes.BlockSize {
		e.block.Encrypt(buf[off:off+aes.BlockSize], buf[off:off+aes.BlockSize])
	}
	// …and fold each pad into its line, eight uint64 XORs per line.
	for i := range ops {
		line := ops[i].Line
		pad := buf[i*ecc.LineSize : i*ecc.LineSize+ecc.LineSize]
		for w := 0; w < ecc.LineSize; w += 8 {
			v := binary.LittleEndian.Uint64(line[w:w+8]) ^
				binary.LittleEndian.Uint64(pad[w:w+8])
			binary.LittleEndian.PutUint64(line[w:w+8], v)
		}
	}
}

// EncryptBatch commits a new write counter for every op (stored into
// op.Counter) and replaces each op's plaintext with its ciphertext, the
// batch equivalent of N EncryptInPlace calls.
func (e *Engine) EncryptBatch(ops []BatchOp) {
	for i := range ops {
		ops[i].Counter = e.ReserveCounter(ops[i].Addr)
	}
	e.XorPadBatch(ops)
}

// DecryptBatch decrypts every op's ciphertext under the current counter of
// its address (stored into op.Counter), the batch equivalent of N
// DecryptInPlace calls.
func (e *Engine) DecryptBatch(ops []BatchOp) {
	for i := range ops {
		ops[i].Counter = e.counters.Load(ops[i].Addr)
		e.Decryptions++
	}
	e.XorPadBatch(ops)
}
