// Package memctrl models the CPU-side memory controller in which every
// deduplication scheme lives (§III-A: ESD "locates inside the memory
// controller on the CPU-side"). It provides:
//
//   - the Scheme interface implemented by Baseline, Dedup_SHA1, DeWrite
//     (package dedup) and ESD (package core);
//   - the shared machinery those schemes compose: the Address Mapping
//     Table (AMT) with an SRAM hot-entry cache backed by NVMM, a physical
//     line allocator with reference counting, and the controller front-end
//     pipeline whose occupancy creates the cascade blocking the paper
//     attributes to expensive fingerprints;
//   - the Controller that replays a trace through a scheme and collects
//     the latency, energy, endurance and breakdown metrics behind the
//     paper's figures.
package memctrl

import (
	"fmt"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/crypto"
	"github.com/esdsim/esd/internal/dram"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/integrity"
	"github.com/esdsim/esd/internal/media"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// MediaBackend is the media layer a scheme writes through — nvm.Device
// (plain PCM) or media.Hybrid (DRAM buffer in front of PCM). See package
// media for the contract.
type MediaBackend = media.Backend

// WriteOutcome reports how a scheme handled one dirty-eviction write.
type WriteOutcome struct {
	// Done is the CPU-visible completion time of the write path.
	Done sim.Time
	// Breakdown decomposes the write latency (Fig. 17 components).
	Breakdown stats.Breakdown
	// Deduplicated reports whether the line was eliminated.
	Deduplicated bool
	// PhysAddr is the physical line that now backs the logical address.
	PhysAddr uint64
}

// ReadOutcome reports how a scheme served one demand read.
type ReadOutcome struct {
	// Done is when decrypted data is available.
	Done sim.Time
	// Data is the plaintext line content (zero line for cold reads).
	Data ecc.Line
	// Hit reports whether the logical address had ever been written.
	Hit bool
}

// SchemeStats counts scheme-level events; not every field is meaningful
// for every scheme.
type SchemeStats struct {
	Writes       uint64
	Reads        uint64
	UniqueWrites uint64 // lines actually written to NVMM
	DedupWrites  uint64 // lines eliminated by deduplication

	FPCacheHits   uint64
	FPCacheMisses uint64
	FPNVMMLookups uint64 // fingerprint fetches from NVMM (full dedup only)
	DupByCache    uint64 // duplicates detected via the on-chip FP cache
	DupByNVMM     uint64 // duplicates detected via NVMM-resident fingerprints

	CompareReads      uint64 // candidate-line reads for byte comparison
	CompareMismatches uint64 // fingerprint collisions caught by comparison

	PredDup           uint64 // DeWrite: predicted-duplicate writes
	PredUnique        uint64 // DeWrite: predicted-unique writes
	Mispredicts       uint64 // DeWrite: wrong predictions
	WastedEncryptions uint64 // DeWrite: speculative encryptions discarded

	ReferHOverflows uint64 // ESD: reference counts that exceeded referH
}

// Sub returns s minus base, field-wise; used to discard warm-up activity.
func (s SchemeStats) Sub(base SchemeStats) SchemeStats {
	return SchemeStats{
		Writes:            s.Writes - base.Writes,
		Reads:             s.Reads - base.Reads,
		UniqueWrites:      s.UniqueWrites - base.UniqueWrites,
		DedupWrites:       s.DedupWrites - base.DedupWrites,
		FPCacheHits:       s.FPCacheHits - base.FPCacheHits,
		FPCacheMisses:     s.FPCacheMisses - base.FPCacheMisses,
		FPNVMMLookups:     s.FPNVMMLookups - base.FPNVMMLookups,
		DupByCache:        s.DupByCache - base.DupByCache,
		DupByNVMM:         s.DupByNVMM - base.DupByNVMM,
		CompareReads:      s.CompareReads - base.CompareReads,
		CompareMismatches: s.CompareMismatches - base.CompareMismatches,
		PredDup:           s.PredDup - base.PredDup,
		PredUnique:        s.PredUnique - base.PredUnique,
		Mispredicts:       s.Mispredicts - base.Mispredicts,
		WastedEncryptions: s.WastedEncryptions - base.WastedEncryptions,
		ReferHOverflows:   s.ReferHOverflows - base.ReferHOverflows,
	}
}

// Add returns s plus other, field-wise; used by the sharded engine to
// aggregate per-shard counters into one system-wide view.
func (s SchemeStats) Add(other SchemeStats) SchemeStats {
	return SchemeStats{
		Writes:            s.Writes + other.Writes,
		Reads:             s.Reads + other.Reads,
		UniqueWrites:      s.UniqueWrites + other.UniqueWrites,
		DedupWrites:       s.DedupWrites + other.DedupWrites,
		FPCacheHits:       s.FPCacheHits + other.FPCacheHits,
		FPCacheMisses:     s.FPCacheMisses + other.FPCacheMisses,
		FPNVMMLookups:     s.FPNVMMLookups + other.FPNVMMLookups,
		DupByCache:        s.DupByCache + other.DupByCache,
		DupByNVMM:         s.DupByNVMM + other.DupByNVMM,
		CompareReads:      s.CompareReads + other.CompareReads,
		CompareMismatches: s.CompareMismatches + other.CompareMismatches,
		PredDup:           s.PredDup + other.PredDup,
		PredUnique:        s.PredUnique + other.PredUnique,
		Mispredicts:       s.Mispredicts + other.Mispredicts,
		WastedEncryptions: s.WastedEncryptions + other.WastedEncryptions,
		ReferHOverflows:   s.ReferHOverflows + other.ReferHOverflows,
	}
}

// DedupRate returns the fraction of writes eliminated.
func (s SchemeStats) DedupRate() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.DedupWrites) / float64(s.Writes)
}

// Scheme is a write-path deduplication/encryption policy living in the
// memory controller.
type Scheme interface {
	// Name identifies the scheme ("baseline", "dedup-sha1", "dewrite",
	// "esd").
	Name() string
	// Write handles a dirty LLC eviction arriving at `at`.
	Write(logical uint64, data *ecc.Line, at sim.Time) WriteOutcome
	// Read serves a demand read arriving at `at`.
	Read(logical uint64, at sim.Time) ReadOutcome
	// Tick performs periodic maintenance (e.g. ESD's LRCU refresh);
	// the controller calls it on the scheme's TickInterval.
	Tick(now sim.Time)
	// TickInterval returns the maintenance period (0 = no maintenance).
	TickInterval() sim.Time
	// MetadataNVMM returns the bytes of scheme metadata resident in NVMM
	// (fingerprint stores, AMT backing); used by Fig. 19.
	MetadataNVMM() int64
	// MetadataSRAM returns the bytes of on-chip metadata cache in use.
	MetadataSRAM() int64
	// Stats returns the scheme's event counters.
	Stats() SchemeStats
}

// Crasher is implemented by schemes that support simulated power failure:
// Crash drains eADR-protected dirty metadata to NVMM and discards all
// volatile SRAM state (fingerprint caches, predictors, hot-entry caches).
// Data must remain fully readable afterwards — the property §III-E argues
// for ESD, which keeps no fingerprint state that needs recovery at all.
type Crasher interface {
	Crash(now sim.Time)
}

// Env bundles the shared hardware a scheme operates on. One Env must be
// used by exactly one scheme instance.
type Env struct {
	Cfg config.Config
	// Device is the media the scheme's lines live on. NewEnv installs the
	// plain PCM device; EnableHybridMedia wraps it with the DRAM/PCM
	// hybrid tier (scheme ESD+CARAM) before any traffic flows.
	Device MediaBackend
	Crypto *crypto.Engine
	// Frontend is the controller's processing pipeline. Serial compute
	// (hashing, probes) reserves it, so an expensive fingerprint on one
	// write delays every queued request behind it (cascade blocking).
	Frontend sim.Resource
	// Energy accumulates scheme-side energy; media energy is accounted by
	// the device.
	Energy stats.EnergyLedger

	// Integrity, when non-nil, is the Merkle counter tree authenticating
	// encryption counters (config.Crypto.IntegrityEnabled).
	Integrity *integrity.Tree

	// Tel is the telemetry sink every layer reports into. It is nil when
	// telemetry is off — all Sink hooks are nil-safe, so instrumented hot
	// paths pay only one predictable branch per hook. Set it (via
	// AttachTelemetry) before constructing a scheme, whose constructors
	// register the counts their caches and AMT keep.
	Tel *telemetry.Sink

	// StepHook, when non-nil, is invoked at named intermediate points
	// inside scheme write paths (see StepPoint). It exists for crash-point
	// testing: a hook may call the scheme's Crash from inside a write to
	// model power failure between two metadata updates, and the recovered
	// state must still satisfy every checker invariant. Nil in production;
	// the hot path pays one predictable branch per point.
	StepHook func(StepPoint)

	// Address space layout: data lines occupy [0, DataLines); metadata
	// structures hash into [DataLines, total lines).
	DataLines uint64
	metaLines uint64

	// hybrid is non-nil once EnableHybridMedia wrapped Device with the
	// DRAM/PCM tier; the dedup plumbing feeds placement hints through it.
	hybrid *media.Hybrid
}

// StepPoint names an intermediate point inside a scheme's write path where
// a crash is architecturally possible: after one metadata structure was
// updated but before the dependent one. The checker's crash tables inject
// failures exactly here.
type StepPoint uint8

const (
	// StepAMTUpdated fires after the AMT mapping was installed but before
	// the reference counts were adjusted (inside MapWrite).
	StepAMTUpdated StepPoint = iota
	// StepCounterBumped fires after the encryption counter was advanced
	// but before the ciphertext reached the media write queue.
	StepCounterBumped
	// StepWALPersisted fires (hybrid media only) after a DRAM-bound
	// write's write-ahead PCM persist but before the DRAM install.
	StepWALPersisted
	// StepDRAMInstalled fires (hybrid media only) after the DRAM install
	// but before the caller's dependent metadata updates.
	StepDRAMInstalled
)

// String names the step point for failure reports.
func (p StepPoint) String() string {
	switch p {
	case StepAMTUpdated:
		return "amt-updated"
	case StepCounterBumped:
		return "counter-bumped"
	case StepWALPersisted:
		return "wal-persisted"
	case StepDRAMInstalled:
		return "dram-installed"
	default:
		return "unknown-step"
	}
}

// Step invokes the test hook, if any. Schemes call it at each StepPoint.
func (e *Env) Step(p StepPoint) {
	if e.StepHook != nil {
		e.StepHook(p)
	}
}

// NewEnv builds an Env from a validated config. A quarter of the device is
// reserved for metadata structures, mirroring the generous worst case of
// full-dedup schemes (§II-B: up to 25% overhead).
func NewEnv(cfg config.Config) *Env {
	total := uint64(cfg.PCM.Lines())
	meta := total / 4
	e := &Env{
		Cfg:       cfg,
		Device:    nvm.New(cfg.PCM),
		Crypto:    crypto.NewEngineFromSeed(cfg.Seed),
		DataLines: total - meta,
		metaLines: meta,
	}
	if cfg.Crypto.IntegrityEnabled {
		e.Integrity = integrity.New(integrity.DefaultConfig(e.DataLines))
	}
	return e
}

// EnableHybridMedia wraps the plain PCM device with the content-aware
// DRAM/PCM hybrid tier (scheme ESD+CARAM). It must run before any
// traffic flows — NewScheme calls it while building a hybrid scheme —
// and is idempotent. The rotating write-ahead log lives at the base of
// the metadata region: its appends are timing-only metadata writes, so
// sharing addresses with hashed metadata lines is harmless, and its wear
// lands where metadata wear already does.
func (e *Env) EnableHybridMedia() error {
	if e.hybrid != nil {
		return nil
	}
	pcm, ok := e.Device.(*nvm.Device)
	if !ok {
		return fmt.Errorf("memctrl: hybrid media needs the raw PCM device, have %T", e.Device)
	}
	mcfg := e.Cfg.Media.Normalized(e.Cfg.PCM)
	walLines := uint64(mcfg.WALLines)
	if e.metaLines > 0 && walLines > e.metaLines {
		walLines = e.metaLines
	}
	if walLines == 0 {
		walLines = 1
	}
	h := media.NewHybrid(pcm, dram.New(mcfg.DRAM), mcfg, e.DataLines, walLines)
	h.OnStep = func(s media.Step) {
		switch s {
		case media.StepWALPersisted:
			e.Step(StepWALPersisted)
		case media.StepDRAMInstalled:
			e.Step(StepDRAMInstalled)
		}
	}
	e.Device = h
	e.hybrid = h
	e.registerHybridTelemetry()
	return nil
}

// Hybrid returns the DRAM/PCM tier, or nil when the media is plain PCM.
func (e *Env) Hybrid() *media.Hybrid { return e.hybrid }

// NoteDupRef feeds the dedup engine's duplicate-reference signal (an
// EFIT hit / refcount increment on phys) to the hybrid tier's placement
// policy. One predictable branch when the media is plain PCM.
func (e *Env) NoteDupRef(phys uint64, at sim.Time) {
	if e.hybrid != nil {
		e.hybrid.RefHint(phys, at)
	}
}

// CrashMedia drops the volatile side of the media across a simulated
// power failure (after recovery replay); a no-op on plain PCM, which has
// no volatile side.
func (e *Env) CrashMedia() {
	if e.hybrid != nil {
		e.hybrid.Crash()
	}
}

// AttachTelemetry wires tel into the environment and the hardware it owns:
// the sink publishes the device's media reads, writes and row hits and the
// crypto engine's encryptions and decryptions from their own counters, and
// the device-health gauge family (wear shape and energy split, computed
// from the device's race-safe health summary at scrape time).
func (e *Env) AttachTelemetry(tel *telemetry.Sink) {
	e.Tel = tel
	if tel != nil {
		tel.CountFrom(telemetry.DeviceReads, func() uint64 { return e.Device.MediaStats().Reads })
		tel.CountFrom(telemetry.DeviceWrites, func() uint64 { return e.Device.MediaStats().Writes })
		tel.CountFrom(telemetry.DeviceRowHits, func() uint64 { return e.Device.MediaStats().RowHits })
		tel.CountFrom(telemetry.CryptoEncrypts, func() uint64 { return e.Crypto.Encryptions })
		tel.CountFrom(telemetry.CryptoDecrypts, func() uint64 { return e.Crypto.Decryptions })
		dev := e.Device
		tel.RegisterDeviceHealth(func() telemetry.DeviceHealth {
			h := dev.HealthSummary()
			return telemetry.DeviceHealth{
				MaxWear:       h.MaxWear,
				P99Wear:       h.P99Wear,
				MeanWear:      h.MeanWear(),
				WearSkew:      h.WearSkew(),
				ReadEnergyNJ:  h.ReadEnergyNJ,
				WriteEnergyNJ: h.WriteEnergyNJ,
			}
		})
		e.registerHybridTelemetry()
	}
}

// registerHybridTelemetry exports the hybrid tier's gauge family. Both
// AttachTelemetry and EnableHybridMedia call it, so the gauges appear
// regardless of which wiring order a front end uses.
func (e *Env) registerHybridTelemetry() {
	if e.Tel == nil || e.hybrid == nil {
		return
	}
	h := e.hybrid
	e.Tel.RegisterHybridHealth(func() telemetry.HybridHealth {
		s := h.Snapshot()
		return telemetry.HybridHealth{
			DRAMHits:       s.DRAMHits,
			DRAMMisses:     s.DRAMMisses,
			Promotions:     s.Promotions,
			Demotions:      s.Demotions,
			Writebacks:     s.Writebacks,
			WALAppends:     s.WALAppends,
			AbsorbedWrites: s.AbsorbedWrites,
			CapacityLines:  s.CapacityLines,
			ResidentLines:  s.ResidentLines,
			DirtyLines:     s.DirtyLines,
		}
	})
}

// IntegrityUpdate refreshes the counter tree after a write to phys (no-op
// without integrity). The returned latency is off the critical write path
// (eADR-protected), but is reported so schemes can account it as metadata
// work.
func (e *Env) IntegrityUpdate(phys, counter uint64, at sim.Time) sim.Time {
	if e.Integrity == nil {
		return 0
	}
	before := e.Integrity.Stats.HashOps
	lat := e.Integrity.Update(phys, counter, at)
	e.Energy.Fingerprint += float64(e.Integrity.Stats.HashOps-before) * 0.9
	return lat
}

// IntegrityVerify authenticates phys's counter before a read's plaintext
// may be released (no-op without integrity). Tampering is a model
// invariant violation and panics.
func (e *Env) IntegrityVerify(phys uint64, at sim.Time) sim.Time {
	if e.Integrity == nil {
		return 0
	}
	before := e.Integrity.Stats.HashOps
	lat, err := e.Integrity.Verify(phys, at)
	if err != nil {
		panic(fmt.Sprintf("memctrl: %v at line %d", err, phys))
	}
	e.Energy.Fingerprint += float64(e.Integrity.Stats.HashOps-before) * 0.9
	return lat
}

// MetaLineFor maps a metadata key (e.g. a fingerprint or an AMT bucket) to
// a line address inside the metadata region.
func (e *Env) MetaLineFor(key uint64) uint64 {
	if e.metaLines == 0 {
		return e.DataLines
	}
	key = (key ^ (key >> 33)) * 0xFF51AFD7ED558CCD
	key ^= key >> 33
	return e.DataLines + key%e.metaLines
}

// ChargeSRAM charges one metadata-SRAM probe (latency is composed by the
// caller; energy lands in the ledger).
func (e *Env) ChargeSRAM() { e.Energy.SRAM += e.Cfg.Meta.SRAMEnergy }

// ChargeCompare charges one byte-by-byte line comparison.
func (e *Env) ChargeCompare() { e.Energy.Compare += e.Cfg.FP.CompareEnery }
