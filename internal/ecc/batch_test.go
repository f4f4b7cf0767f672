package ecc

import (
	"testing"
	"testing/quick"

	"github.com/esdsim/esd/internal/xrand"
	"github.com/esdsim/esd/internal/xrand/quicktest"
)

func randLines(rng *xrand.Rand, n int) []*Line {
	lines := make([]*Line, n)
	for i := range lines {
		l := &Line{}
		for w := 0; w < WordsPerLine; w++ {
			l.SetWord(w, rng.Uint64())
		}
		lines[i] = l
	}
	return lines
}

// EncodeLines must agree with per-line EncodeLine for every batch size
// from a singleton to 9 lines.
func TestEncodeLinesMatchesScalar(t *testing.T) {
	for size := 1; size <= 9; size++ {
		prop := func(seed uint64) bool {
			r := xrand.New(seed)
			lines := randLines(r, size)
			fps := make([]Fingerprint, size)
			EncodeLines(lines, fps)
			for i, l := range lines {
				if fps[i] != EncodeLine(l) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, quicktest.Config(t, 50)); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

// DecodeLines must agree with per-line DecodeLine, including on corrupted
// lines: corrected data, corrected fingerprint and status all match.
func TestDecodeLinesMatchesScalar(t *testing.T) {
	for size := 1; size <= 9; size++ {
		prop := func(seed uint64) bool {
			r := xrand.New(seed)
			lines := randLines(r, size)
			fps := make([]Fingerprint, size)
			EncodeLines(lines, fps)
			// Corrupt a strided subset: no error, single-bit, double-bit.
			for i, l := range lines {
				switch i % 3 {
				case 1:
					FlipBit(l, r.Intn(512))
				case 2:
					FlipBit(l, 0)
					FlipBit(l, 1)
				}
			}
			scalarLines := make([]*Line, size)
			scalarFPs := make([]Fingerprint, size)
			scalarSts := make([]Status, size)
			for i, l := range lines {
				cp := *l
				scalarLines[i] = &cp
				scalarFPs[i], scalarSts[i] = DecodeLine(&cp, fps[i])
			}
			statuses := make([]Status, size)
			DecodeLines(lines, fps, statuses)
			for i := range lines {
				if *lines[i] != *scalarLines[i] || fps[i] != scalarFPs[i] || statuses[i] != scalarSts[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, quicktest.Config(t, 30)); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestEncodeLinesEmpty(t *testing.T) {
	EncodeLines(nil, nil) // must not panic
	DecodeLines(nil, nil, nil)
}

func BenchmarkEncodeLines8(b *testing.B) {
	b.ReportAllocs()
	lines := randLines(xrand.New(3), 8)
	fps := make([]Fingerprint, 8)
	b.SetBytes(8 * LineSize)
	for i := 0; i < b.N; i++ {
		EncodeLines(lines, fps)
	}
}
