package crypto

import (
	"github.com/esdsim/esd/internal/ecc"
)

// SplitCounterEngine implements the split-counter organization real
// secure-memory designs use (DEUCE, cited as [66] in the paper; also the
// organization assumed by Synergy/Triad-NVM): each 64-line page shares one
// large major counter, and every line keeps only a small per-line minor
// counter. The pad for a line is derived from (page major || line minor).
//
// Small minors overflow: when a line's minor saturates, the page's major
// counter increments and *every* line in the page must be re-encrypted
// under the new major — the classic write-amplification trade-off that
// shrinking counter metadata buys. The engine tracks that cost explicitly.
//
// Compared to the flat Engine (one 64-bit counter per line, 8 B/line of
// counter metadata), the split organization stores 64-bit major per page
// plus MinorBits per line (e.g. 1 B + 7 bit/line ≈ 8x less), at the price
// of periodic page re-encryption storms.
type SplitCounterEngine struct {
	inner     *Engine
	minorBits uint
	minorMax  uint64

	majors map[uint64]uint64 // page -> major counter
	minors map[uint64]uint64 // line -> minor counter

	// Stats.
	Encryptions      uint64
	MinorOverflows   uint64
	LinesReencrypted uint64
	PagesReencrypted uint64
}

// LinesPerPage is the split-counter page granularity in cache lines.
const LinesPerPage = 64

// NewSplitCounterEngine builds a split-counter engine with minorBits-wide
// per-line counters (DEUCE-style: 7).
func NewSplitCounterEngine(seed uint64, minorBits uint) *SplitCounterEngine {
	if minorBits < 1 || minorBits > 32 {
		panic("crypto: minorBits must be in [1, 32]")
	}
	return &SplitCounterEngine{
		inner:     NewEngineFromSeed(seed),
		minorBits: minorBits,
		minorMax:  1<<minorBits - 1,
		majors:    make(map[uint64]uint64),
		minors:    make(map[uint64]uint64),
	}
}

func pageOf(addr uint64) uint64 { return addr / LinesPerPage }

// counterFor combines the page major and line minor into the effective
// pad counter. Majors are shifted clear of minors so (major, minor) pairs
// never alias.
func (e *SplitCounterEngine) counterFor(addr uint64) uint64 {
	return e.majors[pageOf(addr)]<<e.minorBits | e.minors[addr]
}

// Encrypt encrypts plain for addr, bumping the line's minor counter. When
// the minor overflows, the page major increments, all minors reset, and
// the reencrypt callback is invoked for every *other* live line of the
// page so the caller can rewrite their ciphertexts (the engine reports
// which lines and their fresh ciphertexts via the callback).
//
// The callback receives each line's address; the caller must supply that
// line's current plaintext via getPlain and store the returned ciphertext.
func (e *SplitCounterEngine) Encrypt(addr uint64, plain *ecc.Line,
	getPlain func(addr uint64) (ecc.Line, bool),
	storeCipher func(addr uint64, ct ecc.Line)) (ct ecc.Line, counter uint64) {
	e.Encryptions++
	if e.minors[addr] >= e.minorMax {
		// Overflow: re-key the whole page.
		e.MinorOverflows++
		e.PagesReencrypted++
		page := pageOf(addr)
		e.majors[page]++
		base := page * LinesPerPage
		for i := uint64(0); i < LinesPerPage; i++ {
			other := base + i
			if other == addr {
				e.minors[other] = 0
				continue
			}
			if _, ok := e.minors[other]; !ok {
				continue // never written; nothing to re-encrypt
			}
			e.minors[other] = 0
			if getPlain == nil || storeCipher == nil {
				continue
			}
			if pt, ok := getPlain(other); ok {
				e.LinesReencrypted++
				c := e.padEncrypt(other, &pt)
				storeCipher(other, c)
			}
		}
	}
	e.minors[addr]++
	return e.padEncrypt(addr, plain), e.counterFor(addr)
}

// padEncrypt XORs plain with the pad for addr's *current* counters; the
// caller must have already settled the minor (bumped on a fresh write,
// reset on a page rekey).
func (e *SplitCounterEngine) padEncrypt(addr uint64, plain *ecc.Line) ecc.Line {
	ct := *plain
	e.inner.xorPad(addr, e.counterFor(addr), &ct)
	return ct
}

// Decrypt decrypts ct stored at addr under the line's current counters.
func (e *SplitCounterEngine) Decrypt(addr uint64, ct *ecc.Line) ecc.Line {
	pt := *ct
	e.inner.xorPad(addr, e.counterFor(addr), &pt)
	return pt
}

// MetadataBitsPerLine reports the counter-metadata cost of this
// organization in bits per line (major amortized over the page + minor).
func (e *SplitCounterEngine) MetadataBitsPerLine() float64 {
	return 64.0/LinesPerPage + float64(e.minorBits)
}

// FlatMetadataBitsPerLine is the flat Engine's cost for comparison.
const FlatMetadataBitsPerLine = 64.0
