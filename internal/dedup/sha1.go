package dedup

import (
	"encoding/binary"

	"github.com/esdsim/esd/internal/cache"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/fingerprint"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// SHA1 is the traditional full inline deduplication scheme (Dedup_SHA1 in
// the paper): every evicted line is SHA-1 hashed on the critical path, the
// full fingerprint index lives in NVMM, and a small on-chip fingerprint
// cache filters lookups. A fingerprint-cache miss forces a fingerprint
// fetch from NVMM before the write can proceed — the NVMM_lookup
// bottleneck of §II-B. Like its real-world counterparts, it trusts the
// cryptographic hash and performs no byte comparison.
type SHA1 struct {
	Base
	fper    fingerprint.Fingerprinter
	fpCache *cache.Cache[uint64] // digest summary -> physical line
	fpIndex map[[20]byte]uint64  // NVMM-resident full index
	physFP  map[uint64][20]byte  // reverse map for freeing

	// def holds the deferred stores of one WriteBatch call, and one the
	// one-op batch a scalar Write runs as.
	def Deferred
	one [1]memctrl.BatchWrite
}

// NewSHA1 constructs the Dedup_SHA1 scheme on env.
func NewSHA1(env *memctrl.Env) *SHA1 {
	s := &SHA1{
		Base:    NewBase(env),
		fper:    fingerprint.New(fingerprint.KindSHA1, env.Cfg.FP),
		fpIndex: make(map[[20]byte]uint64),
		physFP:  make(map[uint64][20]byte),
	}
	entries := env.Cfg.SHA1.FPCacheBytes / env.Cfg.SHA1.FPEntryBytes
	if entries < 1 {
		entries = 1
	}
	s.fpCache = cache.New[uint64](entries, 8, cache.LRU)
	env.Tel.CacheCountsFrom("sha1-fp", &s.fpCache.Stats)
	s.OnFree = s.purge
	return s
}

func (s *SHA1) purge(phys uint64) {
	key, ok := s.physFP[phys]
	if !ok {
		return
	}
	delete(s.physFP, phys)
	delete(s.fpIndex, key)
	s.fpCache.Delete(binary.LittleEndian.Uint64(key[:8]))
}

// Name implements memctrl.Scheme.
func (s *SHA1) Name() string { return "dedup-sha1" }

// Write implements memctrl.Scheme as a one-op batch.
func (s *SHA1) Write(logical uint64, data *ecc.Line, at sim.Time) memctrl.WriteOutcome {
	op := &s.one[0]
	op.Logical, op.Data, op.At = logical, data, at
	s.WriteBatch(s.one[:])
	return op.Out
}

// WriteBatch implements memctrl.BatchWriter, and is Dedup_SHA1's one
// write kernel: per op, the hash, the fingerprint-cache probe and, on a
// miss, the NVMM index lookup, with unique stores deferred so their pads
// come from one batched AES pass. SHA-1 trusts the hash and never reads a
// data line during a write, so no mid-batch flush is ever needed; the
// index updates at decision time make an intra-batch duplicate of a
// deferred store hit the cache path. The posted fingerprint-store write
// depends on the media accept time, so it moves to the flush with its
// store.
func (s *SHA1) WriteBatch(ops []memctrl.BatchWrite) {
	cfg := s.Env.Cfg
	for i := range ops {
		op := &ops[i]
		s.St.Writes++
		d := s.fper.Fingerprint(op.Data)
		s.Env.Energy.Fingerprint += s.fper.Energy()
		s.Env.ChargeSRAM()
		// The hash unit and fingerprint-cache probe occupy the controller
		// front end serially: this is what cascade-blocks queued requests.
		feStart, feEnd := s.Env.Frontend.Reserve(op.At, s.fper.Latency()+cfg.Meta.SRAMLatency)
		bd := stats.Breakdown{
			// Waiting for the hash unit is part of the fingerprint-
			// computation cost: it is the cascade blocking expensive
			// hashes cause (§II-B).
			FPCompute:    (feStart - op.At) + s.fper.Latency(),
			FPLookupSRAM: cfg.Meta.SRAMLatency,
		}
		t := feEnd

		if phys, hit := s.fpCache.Get(d.Short); hit {
			s.St.FPCacheHits++
			s.St.DupByCache++
			mapLat := s.DedupHit(op.Logical, phys, t)
			bd.Metadata = mapLat
			s.Env.Tel.OnWrite(telemetry.DecDupFPCache, op.Logical, phys, true, op.At, t+mapLat, &bd)
			op.Out = memctrl.WriteOutcome{Done: t + mapLat, Breakdown: bd, Deduplicated: true, PhysAddr: phys}
			continue
		}
		s.St.FPCacheMisses++
		// Full deduplication: the authoritative index is in NVMM, so the
		// miss costs a serial metadata read on the critical write path.
		rr := s.Env.Device.ReadMeta(s.Env.MetaLineFor(d.Short), t)
		s.St.FPNVMMLookups++
		bd.FPLookupNVMM = rr.Done - t
		t = rr.Done

		if phys, ok := s.fpIndex[d.Key]; ok {
			s.St.DupByNVMM++
			s.fpCache.Put(d.Short, phys)
			mapLat := s.DedupHit(op.Logical, phys, t)
			bd.Metadata = mapLat
			s.Env.Tel.OnWrite(telemetry.DecDupFPNVMM, op.Logical, phys, true, op.At, t+mapLat, &bd)
			op.Out = memctrl.WriteOutcome{Done: t + mapLat, Breakdown: bd, Deduplicated: true, PhysAddr: phys}
			continue
		}

		// Unique line: encrypt (serially, after the lookup resolved) and
		// write.
		bd.Encrypt = cfg.Crypto.EncryptLatency
		phys, mapLat := s.StoreUniqueDeferred(&s.def, op.Logical, op.Data, t+cfg.Crypto.EncryptLatency, i, 0, d.Short)
		s.fpIndex[d.Key] = phys
		s.physFP[phys] = d.Key
		s.fpCache.Put(d.Short, phys)
		bd.Metadata = mapLat
		op.Out = memctrl.WriteOutcome{Breakdown: bd, PhysAddr: phys}
	}

	s.def.Flush(s.Env)
	entries := s.def.Entries()
	for i := range entries {
		p := &entries[i]
		op := &ops[p.Slot]
		op.Out.Breakdown.Queue += p.Wr.Stall
		op.Out.Breakdown.Media = p.Wr.ServiceLatency
		op.Out.Done = p.Wr.AcceptedAt + p.Wr.ServiceLatency
		// The new fingerprint entry is persisted to NVMM off the critical
		// path, once its data write has been accepted.
		s.Env.Device.WriteMeta(s.Env.MetaLineFor(p.Aux), p.Wr.AcceptedAt)
		s.Env.Tel.OnWrite(telemetry.DecUniqueFPMiss, p.Logical, p.Phys, false, op.At, op.Out.Done, &op.Out.Breakdown)
	}
	s.def.Reset()
}

// Read implements memctrl.Scheme.
func (s *SHA1) Read(logical uint64, at sim.Time) memctrl.ReadOutcome {
	out := s.ReadPath(logical, at)
	s.Env.Tel.OnRead(logical, out.Hit, at, out.Done)
	return out
}

// MetadataNVMM implements memctrl.Scheme: the full SHA-1 index plus the
// AMT backing store.
func (s *SHA1) MetadataNVMM() int64 {
	return int64(len(s.fpIndex))*int64(s.Env.Cfg.SHA1.FPEntryBytes) + s.AMT.NVMMBytes()
}

// MetadataSRAM implements memctrl.Scheme.
func (s *SHA1) MetadataSRAM() int64 {
	return int64(s.Env.Cfg.SHA1.FPCacheBytes) + s.MetadataSRAMBase()
}

// FPCacheStats exposes fingerprint-cache statistics for experiments.
func (s *SHA1) FPCacheStats() cache.Stats { return s.fpCache.Stats }

// Crash implements memctrl.Crasher: the on-chip fingerprint cache is lost;
// the NVMM-resident fingerprint index and AMT survive, so deduplication
// resumes (with cold caches) and no data is lost.
func (s *SHA1) Crash(now sim.Time) {
	s.CrashBase(now)
	s.fpCache.Clear()
}
