package check

import "github.com/esdsim/esd/internal/ecc"

// Oracle is the trivially-correct reference memory: a map from logical line
// address to the last line written there. Everything the schemes do —
// fingerprints, dedup, encryption, sharding, batching — must be
// observationally equivalent to this.
type Oracle struct {
	mem map[uint64]ecc.Line
}

// NewOracle returns an empty oracle memory.
func NewOracle() *Oracle {
	return &Oracle{mem: make(map[uint64]ecc.Line)}
}

// Write records the line as addr's current content.
func (o *Oracle) Write(addr uint64, line ecc.Line) { o.mem[addr] = line }

// Read returns addr's current content and whether it was ever written.
func (o *Oracle) Read(addr uint64) (ecc.Line, bool) {
	l, ok := o.mem[addr]
	return l, ok
}

// Len returns the number of distinct addresses written.
func (o *Oracle) Len() int { return len(o.mem) }
