// Package media abstracts what the memory controller writes lines to.
// The ESD paper evaluates against a single PCM device (package nvm); the
// roadmap's hybrid-tier (CARAM) and compression (L2C2) directions both
// need to interpose on the media path without the schemes noticing, so
// the controller talks to this Backend interface and nvm.Device becomes
// one implementation of it. The other implementation here is Hybrid: a
// volatile DRAM buffer in front of PCM with content-aware placement and
// a write-ahead crash-consistency protocol (hybrid.go).
package media

import (
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
)

// Backend is the media layer a scheme's Env writes through: timed data
// and metadata accesses, the functional load, and the wear/health/stats
// surface the observability stack scrapes. nvm.Device satisfies it
// directly; composed backends (Hybrid) forward the health surface to the
// durable device they wrap.
//
// Method contracts follow nvm.Device: the timed and functional accessors
// are single-simulation-thread only, while Wear, HealthSummary and
// HealthSnapshot are safe to call concurrently with that thread.
type Backend interface {
	// Read performs a timed demand read of line addr, returning the current
	// content (ok reports whether the line was ever written).
	Read(addr uint64, now sim.Time) (ecc.Line, bool, nvm.ReadResult)
	// ReadMeta performs a timed metadata read: full timing/energy/wear
	// accounting, no functional content (see nvm.Device.ReadMeta).
	ReadMeta(addr uint64, now sim.Time) nvm.ReadResult
	// Write performs a timed posted write of line to addr. When the write
	// returns, the content is durable: a crash at any later point must not
	// lose it (nvm writes into the persistent device directly; Hybrid
	// write-ahead-persists before installing volatile-side).
	Write(addr uint64, line *ecc.Line, now sim.Time) nvm.WriteResult
	// WriteMeta performs a timed metadata write (no functional content).
	WriteMeta(addr uint64, now sim.Time) nvm.WriteResult

	// Load returns the functional content of addr without timing effects.
	Load(addr uint64) (ecc.Line, bool)

	// Flush drains all queued media work and returns the idle time.
	Flush(now sim.Time) sim.Time
	// SyncHealth publishes staged health accounting (simulation thread).
	SyncHealth()

	// Wear, HealthSummary and HealthSnapshot expose the endurance and
	// health surface of the durable device (concurrency-safe).
	Wear() nvm.WearSummary
	HealthSummary() nvm.HealthSummary
	HealthSnapshot() nvm.HealthSnapshot

	// MediaStats returns the activity counters (simulation thread), which
	// telemetry publishes as the device's read and write totals.
	MediaStats() nvm.Stats
}

// nvm.Device is the canonical Backend.
var _ Backend = (*nvm.Device)(nil)
