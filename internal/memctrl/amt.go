package memctrl

import (
	"github.com/esdsim/esd/internal/cache"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/sparse"
	"github.com/esdsim/esd/internal/telemetry"
)

// amtEntry is the cached mapping value packed into one word: the physical
// line backing a logical line in the low bits, plus mapped and dirty flags
// in the top two (device capacities stay far below 2^62 lines). mapped=0 is
// a negative entry: the bucket was fetched and the logical line is known to
// be unmapped, so repeated cold reads stay on-chip. dirty marks entries
// owed a write-back to the NVMM-resident table. Packing halves the cache's
// value array — the AMT cache is probed and updated on every single write,
// so its host-cache footprint is throughput.
type amtEntry = uint64

const (
	amtMapped amtEntry = 1 << 62
	amtDirty  amtEntry = 1 << 63
	amtPhys   amtEntry = amtMapped - 1
)

// AMT is the Address Mapping Table (§III-B): a many-to-one map from logical
// line addresses to physical line addresses. The full table lives in NVMM;
// hot entries are buffered in an SRAM cache inside the memory controller.
// The cache is write-back: updates dirty the cached entry and only
// evictions of dirty entries cost an NVMM metadata write, so steady-state
// remapping traffic is amortized exactly as an on-chip buffer would.
type AMT struct {
	env   *Env
	cache *cache.Cache[amtEntry]
	// backing is the NVMM-resident table, keyed by dense logical line
	// addresses — a paged sparse array so cache misses and updates stay
	// off the map hash path.
	backing sparse.Map[uint64]

	// NVMMReads and NVMMWrites count metadata traffic to the NVMM-resident
	// table (cache misses and dirty write-backs).
	NVMMReads  uint64
	NVMMWrites uint64
}

// NewAMT builds an AMT whose SRAM cache holds cacheBytes of entries. The
// env's telemetry publishes the cache's hits and misses and the table's
// write-backs from the AMT's own counts.
func NewAMT(env *Env, cacheBytes int) *AMT {
	entries := cacheBytes / env.Cfg.Meta.AMTEntryBytes
	if entries < 1 {
		entries = 1
	}
	a := &AMT{
		env:   env,
		cache: cache.New[amtEntry](entries, 8, cache.LRU),
	}
	env.Tel.CountFrom(telemetry.AMTHits, func() uint64 { return a.cache.Stats.Hits })
	env.Tel.CountFrom(telemetry.AMTMisses, func() uint64 { return a.cache.Stats.Misses })
	env.Tel.CountFrom(telemetry.AMTWritebacks, func() uint64 { return a.NVMMWrites })
	return a
}

// evict handles a displaced cache entry, writing it back if dirty.
func (a *AMT) evict(ev cache.Evicted[amtEntry], now sim.Time) {
	if ev.Value&amtDirty == 0 {
		return
	}
	a.NVMMWrites++
	a.env.Device.WriteMeta(a.env.MetaLineFor(ev.Key), now)
}

// Lookup resolves a logical address, returning the physical address (ok
// reports whether a mapping exists) and the latency incurred on the
// critical path: one SRAM probe, plus one NVMM read when the entry is not
// cached.
func (a *AMT) Lookup(logical uint64, at sim.Time) (phys uint64, ok bool, lat sim.Time) {
	lat = a.env.Cfg.Meta.SRAMLatency
	a.env.ChargeSRAM()
	if e, hit := a.cache.Get(logical); hit {
		return e & amtPhys, e&amtMapped != 0, lat
	}
	phys, ok = a.backing.Get(logical)
	// The miss costs an NVMM metadata read whether or not the entry
	// exists: the table bucket must be fetched to know. The fetched state
	// is cached either way (negative caching for unmapped lines).
	rr := a.env.Device.ReadMeta(a.env.MetaLineFor(logical), at+lat)
	a.NVMMReads++
	lat = rr.Done - at
	e := phys
	if ok {
		e |= amtMapped
	}
	if ev, evicted := a.cache.Put(logical, e); evicted {
		a.evict(ev, at+lat)
	}
	return phys, ok, lat
}

// Prefetch reads what a Lookup or Update of logical will read — the cache
// set and the NVMM-resident table entry — with none of their effects, and
// returns a word folding the loads for a touch stage to keep (see
// cache.Cache.Prefetch).
func (a *AMT) Prefetch(logical uint64) uint64 {
	v, sum := a.cache.Prefetch(logical)
	return v + sum + a.backing.Load(logical)
}

// Mapping returns logical's current mapping (ok reports whether one
// exists) with no latency, statistic or cache effect: a touch stage's view
// of the table, which is authoritative (every Update writes it first).
func (a *AMT) Mapping(logical uint64) (phys uint64, ok bool) {
	return a.backing.Get(logical)
}

// Update installs or replaces the mapping logical -> phys. The visible
// latency is one SRAM probe; persistence is deferred to dirty write-back.
// It returns the previous physical mapping, if any, so the caller can
// maintain reference counts.
func (a *AMT) Update(logical, phys uint64, at sim.Time) (prevPhys uint64, hadPrev bool, lat sim.Time) {
	lat = a.env.Cfg.Meta.SRAMLatency
	a.env.ChargeSRAM()
	prevPhys, hadPrev = a.backing.Get(logical)
	if hadPrev && prevPhys == phys {
		// The mapping is unchanged — a duplicate write re-resolving to the
		// same physical line. The table entry (and any cached copy, which
		// by construction always mirrors the current mapping) is already
		// correct, so the controller touches no mapping state: no dirty
		// bit, no cache allocation displacing a useful entry, and zero
		// metadata write-backs for steady-state duplicate traffic.
		return prevPhys, hadPrev, lat
	}
	a.backing.Set(logical, phys)
	if ev, evicted := a.cache.Put(logical, phys|amtMapped|amtDirty); evicted {
		a.evict(ev, at+lat)
	}
	return prevPhys, hadPrev, lat
}

// CrashFlush models an eADR-backed power-failure drain (§III-E): every
// dirty cached entry is written back to the NVMM-resident table, then the
// volatile cache is dropped. Mappings are never lost because the backing
// table plus the drained entries are complete.
func (a *AMT) CrashFlush(now sim.Time) {
	a.cache.Range(func(key uint64, e amtEntry, _ int) bool {
		if e&amtDirty != 0 {
			a.NVMMWrites++
			a.env.Device.WriteMeta(a.env.MetaLineFor(key), now)
		}
		return true
	})
	a.cache.Clear()
}

// Entries reports the number of mappings in the NVMM-resident table.
func (a *AMT) Entries() int { return a.backing.Len() }

// Range calls fn for every logical -> physical mapping in the
// NVMM-resident table until fn returns false. The backing table is
// authoritative (the SRAM cache is write-through to it), so this is the
// complete mapping; iteration order is unspecified. Used by the checker's
// refcount-conservation and dangling-line audits.
func (a *AMT) Range(fn func(logical, phys uint64) bool) {
	a.backing.Range(fn)
}

// CacheStats exposes the SRAM cache statistics.
func (a *AMT) CacheStats() cache.Stats { return a.cache.Stats }

// NVMMBytes reports the NVMM footprint of the table.
func (a *AMT) NVMMBytes() int64 {
	return int64(a.backing.Len()) * int64(a.env.Cfg.Meta.AMTEntryBytes)
}
