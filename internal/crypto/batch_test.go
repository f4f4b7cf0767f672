package crypto

import (
	"testing"
	"testing/quick"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/xrand"
	"github.com/esdsim/esd/internal/xrand/quicktest"
)

// EncryptBatch must be observably identical to N EncryptInPlace calls:
// same ciphertexts, same committed counters, same Encryptions count — for
// batch sizes 1..9 and for address collisions
// within one batch (the same address written twice in a batch must burn
// two distinct counters, never reuse a pad).
func TestEncryptBatchMatchesScalar(t *testing.T) {
	for size := 1; size <= 9; size++ {
		prop := func(seed uint64) bool {
			r := xrand.New(seed)
			scalar := NewEngineFromSeed(seed)
			batch := NewEngineFromSeed(seed)

			addrs := make([]uint64, size)
			sLines := make([]ecc.Line, size)
			bLines := make([]ecc.Line, size)
			ops := make([]BatchOp, size)
			for i := 0; i < size; i++ {
				// Small address space forces intra-batch collisions.
				addrs[i] = r.Uint64n(4)
				for w := 0; w < ecc.WordsPerLine; w++ {
					sLines[i].SetWord(w, r.Uint64())
				}
				bLines[i] = sLines[i]
				ops[i] = BatchOp{Addr: addrs[i], Line: &bLines[i]}
			}

			sCounters := make([]uint64, size)
			for i := 0; i < size; i++ {
				sCounters[i] = scalar.EncryptInPlace(addrs[i], &sLines[i])
			}
			batch.EncryptBatch(ops)

			for i := 0; i < size; i++ {
				if bLines[i] != sLines[i] || ops[i].Counter != sCounters[i] {
					return false
				}
			}
			if batch.Encryptions != scalar.Encryptions {
				return false
			}
			for a := uint64(0); a < 4; a++ {
				if batch.Counter(a) != scalar.Counter(a) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, quicktest.Config(t, 40)); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

// DecryptBatch under the current counters must invert EncryptBatch and
// match per-line DecryptInPlace.
func TestDecryptBatchMatchesScalar(t *testing.T) {
	prop := func(seed uint64) bool {
		r := xrand.New(seed)
		e := NewEngineFromSeed(seed)
		d := NewEngineFromSeed(seed)

		const n = 6
		plain := make([]ecc.Line, n)
		ct := make([]ecc.Line, n)
		ops := make([]BatchOp, n)
		for i := 0; i < n; i++ {
			for w := 0; w < ecc.WordsPerLine; w++ {
				plain[i].SetWord(w, r.Uint64())
			}
			ct[i] = plain[i]
			// Distinct addresses: DecryptBatch reads the *current* counter,
			// so a repeated address would decrypt an old ciphertext under a
			// newer counter — exactly like scalar DecryptInPlace.
			e.EncryptInPlace(uint64(i), &ct[i])
			d.Commit(uint64(i), e.Counter(uint64(i)))
			ops[i] = BatchOp{Addr: uint64(i), Line: &ct[i]}
		}
		d.DecryptBatch(ops)
		for i := 0; i < n; i++ {
			if ct[i] != plain[i] || ops[i].Counter != e.Counter(uint64(i)) {
				return false
			}
		}
		return d.Decryptions == n
	}
	if err := quick.Check(prop, quicktest.Config(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// ReserveCounter + a later XorPadBatch must equal an immediate
// EncryptInPlace — the deferred-store write path depends on the counter
// committed at reservation time keying the same pad the scalar path uses.
func TestReserveThenPadMatchesEncryptInPlace(t *testing.T) {
	prop := func(seed uint64, addr uint64) bool {
		r := xrand.New(seed)
		a := NewEngineFromSeed(seed)
		b := NewEngineFromSeed(seed)

		var la, lb ecc.Line
		for w := 0; w < ecc.WordsPerLine; w++ {
			la.SetWord(w, r.Uint64())
		}
		lb = la

		ca := a.EncryptInPlace(addr, &la)
		cb := b.ReserveCounter(addr)
		// An unrelated reservation happens between reserve and pad — the
		// deferred flush must still key on the reserved counter.
		b.ReserveCounter(addr + 1)
		a.EncryptInPlace(addr+1, &ecc.Line{})
		b.XorPadBatch([]BatchOp{{Addr: addr, Counter: cb, Line: &lb}})

		return la == lb && ca == cb && a.Encryptions == b.Encryptions &&
			a.Counter(addr) == b.Counter(addr)
	}
	if err := quick.Check(prop, quicktest.Config(t, 60)); err != nil {
		t.Fatal(err)
	}
}

func TestXorPadBatchEmpty(t *testing.T) {
	e := NewEngineFromSeed(1)
	e.XorPadBatch(nil) // must not panic
	e.EncryptBatch(nil)
	e.DecryptBatch(nil)
}

// The batch kernels must be allocation-free in steady state (after the
// scratch buffer has grown to the working batch size).
func TestBatchKernelAllocs(t *testing.T) {
	e := NewEngineFromSeed(1)
	lines := make([]ecc.Line, 8)
	ops := make([]BatchOp, 8)
	for i := range ops {
		ops[i] = BatchOp{Addr: uint64(i), Line: &lines[i]}
	}
	e.EncryptBatch(ops) // warm the scratch
	if avg := testing.AllocsPerRun(200, func() { e.EncryptBatch(ops) }); avg != 0 {
		t.Fatalf("EncryptBatch allocates %.1f per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { e.XorPadBatch(ops) }); avg != 0 {
		t.Fatalf("XorPadBatch allocates %.1f per run, want 0", avg)
	}
}

func BenchmarkEncryptBatch8(b *testing.B) {
	b.ReportAllocs()
	e := NewEngineFromSeed(1)
	lines := make([]ecc.Line, 8)
	ops := make([]BatchOp, 8)
	for i := range ops {
		l := randLine(xrand.New(uint64(i)))
		lines[i] = l
		ops[i] = BatchOp{Addr: uint64(i & 1023), Line: &lines[i]}
	}
	e.EncryptBatch(ops)
	b.SetBytes(8 * ecc.LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncryptBatch(ops)
	}
}
