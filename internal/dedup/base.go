// Package dedup implements the deduplication schemes the ESD paper
// compares against, plus the plumbing all deduplicating write paths share:
//
//   - Baseline: counter-mode encryption, no deduplication (§IV-A);
//   - Dedup_SHA1: traditional full inline deduplication keyed by SHA-1
//     digests, with the full fingerprint store resident in NVMM;
//   - DeWrite (MICRO'18): CRC fingerprints, a duplication predictor, and
//     speculative encryption in parallel with fingerprinting for
//     predicted-unique lines — still full deduplication.
//
// ESD itself lives in package core and composes the same Base plumbing.
package dedup

import (
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
)

// Base bundles the machinery shared by every deduplicating scheme: the
// address-mapping table, the physical line allocator, per-line reference
// counts, and the common read path. It is meant to be embedded.
type Base struct {
	Env   *memctrl.Env
	AMT   *memctrl.AMT
	Alloc *memctrl.Allocator
	Refs  *memctrl.RefStore
	// OnFree, if set, is invoked when a physical line's reference count
	// reaches zero, so schemes can purge fingerprint entries that point at
	// the recycled line (stale entries would deduplicate onto freed
	// storage and corrupt data).
	OnFree func(phys uint64)

	St memctrl.SchemeStats

	// ctBuf is the scratch line StoreUnique (DeWrite, BCD) and DeWrite's
	// speculation encrypt into. Schemes are single-threaded per instance,
	// so one buffer keeps the steady-state write path free of per-call
	// line copies on the heap.
	ctBuf ecc.Line

	// touchSink is the word PrefetchReads' loads fold into; storing it
	// keeps the compiler from dropping them.
	touchSink uint64

	// auditRefs is AuditBase's count of AMT entries per physical line,
	// indexed by line and kept across audits; a node that never audits
	// never allocates it.
	auditRefs []uint32
}

// NewBase wires the shared machinery onto env.
func NewBase(env *memctrl.Env) Base {
	return Base{
		Env:   env,
		AMT:   memctrl.NewAMT(env, env.Cfg.Meta.AMTCacheBytes),
		Alloc: memctrl.NewAllocator(env.DataLines),
		Refs:  memctrl.NewRefStore(),
	}
}

// MapWrite points logical at phys, maintaining reference counts and freeing
// (and announcing) physical lines that drop to zero references. It returns
// the visible AMT latency.
func (b *Base) MapWrite(logical, phys uint64, at sim.Time) sim.Time {
	prev, had, lat := b.AMT.Update(logical, phys, at)
	if had && prev == phys {
		return lat
	}
	b.Env.Step(memctrl.StepAMTUpdated)
	b.Refs.Inc(phys)
	if had {
		if b.Refs.Dec(prev) {
			b.Alloc.Free(prev)
			if b.OnFree != nil {
				b.OnFree(prev)
			}
		}
	}
	return lat
}

// StoreUnique encrypts data, writes it to a freshly allocated physical
// line at time at, and installs the logical mapping: the scalar store of
// the schemes without a batch kernel (DeWrite, BCD). Encryption *latency*
// is the caller's responsibility (schemes overlap it differently);
// encryption energy is charged here.
func (b *Base) StoreUnique(logical uint64, data *ecc.Line, at sim.Time) (phys uint64, wr nvm.WriteResult, mapLat sim.Time) {
	phys = b.Alloc.Alloc()
	b.ctBuf = *data
	counter := b.Env.Crypto.EncryptInPlace(phys, &b.ctBuf)
	b.Env.Energy.Crypto += b.Env.Cfg.Crypto.EncryptEnergy
	b.Env.Step(memctrl.StepCounterBumped)
	wr = b.Env.Device.Write(phys, &b.ctBuf, at)
	mapLat = b.MapWrite(logical, phys, at)
	mapLat += b.Env.IntegrityUpdate(phys, counter, at)
	b.St.UniqueWrites++
	return phys, wr, mapLat
}

// StorePrepared commits a speculatively encrypted line: the caller already
// holds the ciphertext and counter for phys (from EncryptSpeculative) and
// the corresponding encryption energy has been charged at speculation
// time. Used by DeWrite's parallel predicted-unique path.
func (b *Base) StorePrepared(logical, phys uint64, ct *ecc.Line, counter uint64, at sim.Time) (wr nvm.WriteResult, mapLat sim.Time) {
	b.Env.Crypto.Commit(phys, counter)
	b.Env.Step(memctrl.StepCounterBumped)
	wr = b.Env.Device.Write(phys, ct, at)
	mapLat = b.MapWrite(logical, phys, at)
	mapLat += b.Env.IntegrityUpdate(phys, counter, at)
	b.St.UniqueWrites++
	return wr, mapLat
}

// DedupHit eliminates a duplicate write by remapping logical onto the
// existing physical line. It returns the visible metadata latency. The
// duplicate reference doubles as the hybrid tier's placement signal:
// duplicate-heavy lines are exactly the ones CARAM wants in DRAM.
func (b *Base) DedupHit(logical, phys uint64, at sim.Time) sim.Time {
	lat := b.MapWrite(logical, phys, at)
	b.St.DedupWrites++
	b.Env.NoteDupRef(phys, at)
	return lat
}

// ReadPath is the shared demand-read implementation: AMT resolve, media
// read, counter-mode decrypt (whose pad generation overlaps the media read
// and therefore adds no latency).
func (b *Base) ReadPath(logical uint64, at sim.Time) memctrl.ReadOutcome {
	b.St.Reads++
	_, feEnd := b.Env.Frontend.Reserve(at, b.Env.Cfg.Meta.SRAMLatency)
	phys, ok, lat := b.AMT.Lookup(logical, feEnd)
	t := feEnd + lat
	if !ok {
		// Never-written logical line: nothing to fetch.
		return memctrl.ReadOutcome{Done: t, Hit: false}
	}
	ct, found, rr := b.Env.Device.Read(phys, t)
	out := memctrl.ReadOutcome{Done: rr.Done, Hit: found}
	if found {
		// Counter authentication overlaps the media read; only the excess
		// beyond the media latency delays the data release.
		if vlat := b.Env.IntegrityVerify(phys, t); t+vlat > out.Done {
			out.Done = t + vlat
		}
		b.Env.Crypto.DecryptInPlace(phys, &ct)
		out.Data = ct
	}
	return out
}

// PrefetchReads implements memctrl.ReadPrefetcher for a run of ReadPath
// reads. The first pass touches each read's AMT set and table entry, the
// second, from the mappings those loads brought in, the mapped line's
// media line and write counter — the rest of what ReadPath will read. Two
// passes, because the second pass's addresses and branches depend on the
// first pass's loads: split, neither pass waits on a miss of its own. The
// touch is read-only (see memctrl.ReadPrefetcher).
func (b *Base) PrefetchReads(logical []uint64) {
	var sum uint64
	for _, l := range logical {
		sum += b.AMT.Prefetch(l)
	}
	for _, l := range logical {
		if phys, ok := b.AMT.Mapping(l); ok {
			sum += b.TouchLine(phys)
		}
	}
	b.touchSink = sum
}

// TouchLine reads phys's stored line and write counter ahead of a media
// read of it (ReadPath, a compare read) with no effect, and returns a
// word folding them for a touch stage to keep.
func (b *Base) TouchLine(phys uint64) uint64 {
	line, _ := b.Env.Device.Load(phys)
	return line.Word(0) + b.Env.Crypto.Counter(phys)
}

// CrashBase performs the shared part of a power-failure simulation: the
// eADR domain drains dirty AMT entries to NVMM, the volatile cache is
// lost, and the media's volatile side (the hybrid tier's DRAM buffer)
// runs its recovery replay and drops. Scheme-specific volatile
// structures are the scheme's job.
func (b *Base) CrashBase(now sim.Time) {
	b.AMT.CrashFlush(now)
	if b.Env.Integrity != nil {
		b.Env.Integrity.DropCache()
	}
	b.Env.CrashMedia()
}

// LogicalPhysical reports the logical bytes mapped and the physical bytes
// of live data lines, for effective-capacity accounting.
func (b *Base) LogicalPhysical() (logical, physical int64) {
	return int64(b.AMT.Entries()) * 64, int64(b.Alloc.Live()) * 64
}

// MetadataSRAMBase returns the SRAM bytes used by the shared AMT cache.
func (b *Base) MetadataSRAMBase() int64 {
	return int64(b.Env.Cfg.Meta.AMTCacheBytes)
}

// Stats returns a copy of the scheme counters.
func (b *Base) Stats() memctrl.SchemeStats { return b.St }

// Tick is a no-op for schemes without periodic maintenance.
func (b *Base) Tick(sim.Time) {}

// TickInterval reports no periodic maintenance by default.
func (b *Base) TickInterval() sim.Time { return 0 }
