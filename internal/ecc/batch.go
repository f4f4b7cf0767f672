// Batch codec entry points. Encoding a line is eight table-driven word
// encodes; encoding a write batch's lines through one call keeps
// the 2 KiB lane tables hot in L1 across all of them and gives the write
// path one call site per batch instead of per line.
package ecc

// EncodeLines computes the ECC fingerprint of each line into fps, the
// batch equivalent of calling EncodeLine on every line. fps must be at
// least as long as lines; extra entries are left untouched.
func EncodeLines(lines []*Line, fps []Fingerprint) {
	_ = fps[:len(lines)] // bounds check once, not per line
	for j, l := range lines {
		var fp uint64
		for i := 0; i < WordsPerLine; i++ {
			fp |= uint64(EncodeWord(l.Word(i))) << uint(8*i)
		}
		fps[j] = Fingerprint(fp)
	}
}

// DecodeLines validates and repairs each line in place given its stored
// fingerprint, the batch equivalent of calling DecodeLine on every line.
// fps is updated to the corrected fingerprints; statuses (which must be at
// least as long as lines) receives the worst per-word status of each line.
func DecodeLines(lines []*Line, fps []Fingerprint, statuses []Status) {
	_ = statuses[:len(lines)]
	_ = fps[:len(lines)]
	for j, l := range lines {
		fps[j], statuses[j] = DecodeLine(l, fps[j])
	}
}
