package nvm

import (
	"fmt"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/sim"
)

// StartGap implements the Start-Gap wear-leveling scheme (Qureshi et al.,
// MICRO'09), the standard endurance layer for PCM main memory: N logical
// lines live in N+1 physical slots, one of which (the gap) is unused.
// Every psi writes the gap moves one slot backwards, shifting one line of
// data; after N moves every line has rotated one position, so hot logical
// lines slowly sweep across the whole device instead of burning one cell.
//
// Deduplication (this repo's topic) and wear-leveling are orthogonal and
// compose: dedup reduces how many writes happen, Start-Gap spreads the
// survivors. The endurance example and ablation quantify both.
type StartGap struct {
	n     uint64 // logical lines
	start uint64
	gap   uint64
	psi   int
	count int

	// Moves counts gap movements (each one costs a media read + write).
	Moves uint64
}

// NewStartGap creates a wear-leveler over n logical lines that moves the
// gap every psi writes. It panics on a non-positive geometry.
func NewStartGap(n uint64, psi int) *StartGap {
	if n < 1 {
		panic("nvm: StartGap needs at least one line")
	}
	if psi < 1 {
		panic("nvm: StartGap needs psi >= 1")
	}
	return &StartGap{n: n, gap: n, psi: psi}
}

// Slots returns the physical slot count (logical lines + 1).
func (sg *StartGap) Slots() uint64 { return sg.n + 1 }

// Map translates a logical line to its current physical slot.
func (sg *StartGap) Map(logical uint64) uint64 {
	if logical >= sg.n {
		panic(fmt.Sprintf("nvm: logical line %d out of range (%d lines)", logical, sg.n))
	}
	pa := logical + sg.start
	if pa >= sg.n {
		pa -= sg.n
	}
	if pa >= sg.gap {
		pa++
	}
	return pa
}

// GapSlot returns the currently unused physical slot.
func (sg *StartGap) GapSlot() uint64 { return sg.gap }

// move describes one required data movement: the content of From must be
// copied to To before the new mapping is valid.
type move struct {
	From, To uint64
}

// OnWrite records one write and returns whether a gap move is due plus the
// data movement it requires. The caller performs the copy (a media read
// and write), then the new mapping returned by Map is in effect.
func (sg *StartGap) OnWrite() (move, bool) {
	sg.count++
	if sg.count < sg.psi {
		return move{}, false
	}
	sg.count = 0
	sg.Moves++
	if sg.gap == 0 {
		// Wrap: with the hole at slot 0, advancing Start shifts every
		// line's slot by zero except the line at slot n, which now belongs
		// at slot 0 (the old hole). Slot n becomes the new hole.
		sg.start++
		if sg.start == sg.n {
			sg.start = 0
		}
		sg.gap = sg.n
		return move{From: sg.n, To: 0}, true
	}
	m := move{From: sg.gap - 1, To: sg.gap}
	sg.gap--
	return m, true
}

// LeveledDevice composes a Device with Start-Gap wear leveling over its
// data region. Reads and writes take logical line addresses in [0, Lines).
type LeveledDevice struct {
	dev *Device
	sg  *StartGap
}

// NewLeveledDevice wraps dev with a Start-Gap layer over lines logical
// lines (must leave one spare slot within the device's data capacity).
func NewLeveledDevice(dev *Device, lines uint64, psi int) *LeveledDevice {
	if int64(lines)+1 > dev.Lines() {
		panic("nvm: device too small for Start-Gap spare slot")
	}
	return &LeveledDevice{dev: dev, sg: NewStartGap(lines, psi)}
}

// Device exposes the underlying device (for stats and wear summaries).
func (ld *LeveledDevice) Device() *Device { return ld.dev }

// Leveler exposes the Start-Gap state.
func (ld *LeveledDevice) Leveler() *StartGap { return ld.sg }

// Read performs a timed read of the logical line.
func (ld *LeveledDevice) Read(logical uint64, now sim.Time) (ecc.Line, bool, ReadResult) {
	return ld.dev.Read(ld.sg.Map(logical), now)
}

// Write performs a timed write of the logical line, executing any due gap
// move (one extra media read + write) first so the mapping stays correct.
func (ld *LeveledDevice) Write(logical uint64, line *ecc.Line, now sim.Time) WriteResult {
	if m, due := ld.sg.OnWrite(); due {
		// The gap move copies one line: read the source slot, write it to
		// the destination slot. These are real media operations and show
		// up in wear and energy accounting.
		data, ok, rr := ld.dev.Read(m.From, now)
		if ok {
			ld.dev.Write(m.To, &data, rr.Done)
		}
	}
	return ld.dev.Write(ld.sg.Map(logical), line, now)
}
