package dedup

import (
	"encoding/binary"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// BCD implements a simplified Base-and-Compressed-Difference scheme in the
// spirit of Park et al. (ASPLOS'21), which the ESD paper discusses as
// related work (§V): beyond exact duplicates, lines that *partially* match
// an existing base line are stored as compressed word-level deltas,
// trading extra read work for effective capacity.
//
// This reproduction keeps the structure at the granularity the rest of
// the simulator models:
//
//   - exact duplicates are found by the full ECC fingerprint plus a byte
//     comparison (so no false dedup), with the index on-chip;
//   - similarity uses two half-line sub-fingerprints (the ECC bytes of
//     words 0-3 and of words 4-7): a line whose differences from a base
//     avoid one half matches that half's key;
//   - if at most MaxDeltaWords words differ, the line is stored as a
//     delta — an (index, word) list packed byte-contiguously into a delta
//     region — otherwise it becomes a new base;
//   - reads of delta lines fetch the base line and the delta line
//     (two media reads) and reconstruct.
//
// Effective capacity — BCD's headline metric — is tracked byte-exactly:
// PhysicalBytes counts base lines at 64 B plus packed delta bytes, while
// LogicalBytes counts every mapped logical line at 64 B.
type BCD struct {
	Base
	// exact dedup index: full ECC fingerprint -> base phys.
	fpIndex map[uint64]uint64
	physFP  map[uint64]uint64
	// similarity indexes: half-line sub-fingerprints (ECC bytes of words
	// 0-3 and of words 4-7) -> candidate base phys. A line differing from
	// a base in a few words matches whenever its diffs avoid one half —
	// best-effort similarity detection, like BCD's sampled base matching.
	simLo   map[uint32]uint64
	simHi   map[uint32]uint64
	physSim map[uint64][2]uint32

	// deltas maps a logical address to its delta representation. Logical
	// addresses NOT in this map resolve through the AMT as full lines.
	deltas map[uint64]*deltaEntry

	// Delta region: an append-only byte allocator in the metadata region;
	// deltaBytes counts live payload for capacity accounting.
	deltaCursor uint64
	deltaBytes  int64

	// Stats.
	DeltaWrites  uint64 // lines stored as compressed deltas
	DeltaReads   uint64 // reads served by base+delta reconstruction
	BaseWrites   uint64 // lines stored as new bases
	ExactDedups  uint64
	DeltaBytesWr int64 // total compressed payload written
}

// deltaEntry is a compressed line: the base it patches plus the differing
// words.
type deltaEntry struct {
	basePhys  uint64
	deltaLine uint64 // line in the delta region holding the payload
	mask      uint8  // which words differ
	words     [8]uint64
	size      int // packed bytes: 2-byte header + 8 per differing word
}

// MaxDeltaWords is the compression threshold: lines differing from their
// base in more than this many 8-byte words become new bases.
const MaxDeltaWords = 3

// NewBCD constructs the BCD scheme on env.
func NewBCD(env *memctrl.Env) *BCD {
	s := &BCD{
		Base:    NewBase(env),
		fpIndex: make(map[uint64]uint64),
		physFP:  make(map[uint64]uint64),
		simLo:   make(map[uint32]uint64),
		simHi:   make(map[uint32]uint64),
		physSim: make(map[uint64][2]uint32),
		deltas:  make(map[uint64]*deltaEntry),
	}
	s.OnFree = s.purge
	return s
}

func (s *BCD) purge(phys uint64) {
	if fp, ok := s.physFP[phys]; ok {
		delete(s.physFP, phys)
		if cur, ok := s.fpIndex[fp]; ok && cur == phys {
			delete(s.fpIndex, fp)
		}
	}
	if sk, ok := s.physSim[phys]; ok {
		delete(s.physSim, phys)
		if cur, ok := s.simLo[sk[0]]; ok && cur == phys {
			delete(s.simLo, sk[0])
		}
		if cur, ok := s.simHi[sk[1]]; ok && cur == phys {
			delete(s.simHi, sk[1])
		}
	}
}

// Name implements memctrl.Scheme.
func (s *BCD) Name() string { return "bcd" }

// simKeys returns the two half-line sub-fingerprints: the ECC bytes of
// words 0-3 and of words 4-7.
func simKeys(fp uint64) (lo, hi uint32) {
	return uint32(fp), uint32(fp >> 32)
}

// lookupSimilar finds a candidate base sharing either half-fingerprint.
func (s *BCD) lookupSimilar(fp uint64) (uint64, bool) {
	lo, hi := simKeys(fp)
	if phys, ok := s.simLo[lo]; ok {
		return phys, true
	}
	if phys, ok := s.simHi[hi]; ok {
		return phys, true
	}
	return 0, false
}

// diff returns the mask and words of data that differ from base.
func diff(base, data *ecc.Line) (mask uint8, words [8]uint64, n int) {
	for w := 0; w < 8; w++ {
		dw := data.Word(w)
		if base.Word(w) != dw {
			mask |= 1 << uint(w)
			words[w] = dw
			n++
		}
	}
	return mask, words, n
}

// dropDelta removes a logical address's delta descriptor and releases its
// packed capacity. The base-line reference is held by the AMT mapping, so
// reference counting is handled by whatever remaps the logical address.
func (s *BCD) dropDelta(logical uint64) {
	de, ok := s.deltas[logical]
	if !ok {
		return
	}
	delete(s.deltas, logical)
	s.deltaBytes -= int64(de.size)
}

// Write implements memctrl.Scheme.
func (s *BCD) Write(logical uint64, data *ecc.Line, at sim.Time) memctrl.WriteOutcome {
	s.St.Writes++
	cfg := s.Env.Cfg
	fp := uint64(ecc.EncodeLine(data))

	s.Env.ChargeSRAM()
	feStart, feEnd := s.Env.Frontend.Reserve(at, cfg.Meta.SRAMLatency)
	bd := stats.Breakdown{Queue: feStart - at, FPLookupSRAM: cfg.Meta.SRAMLatency}
	t := feEnd

	// Exact-duplicate attempt.
	if candidate, ok := s.fpIndex[fp]; ok {
		ct, found, rr := s.Env.Device.Read(candidate, t)
		s.St.CompareReads++
		s.Env.ChargeCompare()
		t = rr.Done + cfg.FP.CompareTime
		bd.ReadCompare = t - feEnd
		if found {
			pt := s.Env.Crypto.Decrypt(candidate, &ct)
			if pt == *data {
				s.ExactDedups++
				s.St.DupByCache++
				s.St.FPCacheHits++
				s.dropDelta(logical)
				mapLat := s.DedupHit(logical, candidate, t)
				bd.Metadata = mapLat
				s.Env.Tel.OnWrite(telemetry.DecDupFPCache, logical, candidate, true, at, t+mapLat, &bd)
				return memctrl.WriteOutcome{Done: t + mapLat, Breakdown: bd, Deduplicated: true, PhysAddr: candidate}
			}
			s.St.CompareMismatches++
		}
	}
	s.St.FPCacheMisses++

	// Similarity attempt: a base sharing a half-line sub-fingerprint. Its
	// read checks no fingerprint match, so it is not a compare read.
	if base, ok := s.lookupSimilar(fp); ok {
		ct, found, rr := s.Env.Device.Read(base, t)
		s.Env.ChargeCompare()
		t = rr.Done + cfg.FP.CompareTime
		bd.ReadCompare = t - feEnd
		if found {
			basePT := s.Env.Crypto.Decrypt(base, &ct)
			if mask, words, n := diff(&basePT, data); n > 0 && n <= MaxDeltaWords {
				return s.storeDelta(logical, base, mask, words, n, at, t, bd)
			}
		}
	}

	// New base line.
	s.BaseWrites++
	bd.Encrypt = cfg.Crypto.EncryptLatency
	phys, wr, mapLat := s.StoreUnique(logical, data, t+cfg.Crypto.EncryptLatency)
	s.dropDelta(logical)
	s.installIndexes(fp, phys)
	bd.Queue += wr.Stall
	bd.Media = wr.ServiceLatency
	bd.Metadata = mapLat
	done := wr.AcceptedAt + wr.ServiceLatency
	s.Env.Tel.OnWrite(telemetry.DecBaseWrite, logical, phys, false, at, done, &bd)
	return memctrl.WriteOutcome{Done: done, Breakdown: bd, PhysAddr: phys}
}

func (s *BCD) installIndexes(fp, phys uint64) {
	if old, ok := s.fpIndex[fp]; ok {
		delete(s.physFP, old)
	}
	s.fpIndex[fp] = phys
	s.physFP[phys] = fp
	lo, hi := simKeys(fp)
	if old, ok := s.simLo[lo]; ok {
		delete(s.physSim, old)
	}
	if old, ok := s.simHi[hi]; ok {
		delete(s.physSim, old)
	}
	s.simLo[lo] = phys
	s.simHi[hi] = phys
	s.physSim[phys] = [2]uint32{lo, hi}
}

// storeDelta records logical as a compressed patch against base; at is the
// write's arrival time, t the current pipeline time.
func (s *BCD) storeDelta(logical, base uint64, mask uint8, words [8]uint64, n int, at, t sim.Time, bd stats.Breakdown) memctrl.WriteOutcome {
	cfg := s.Env.Cfg
	s.DeltaWrites++

	size := 2 + 8*n
	// Pack into the delta region: deltas share lines; the packed line is
	// written once per delta append (read-modify-write absorbed by the
	// controller's write buffer).
	lineIdx := s.deltaCursor / 64
	if (s.deltaCursor%64)+uint64(size) > 64 {
		// Does not fit in the open line: start a new one.
		s.deltaCursor = (lineIdx + 1) * 64
		lineIdx++
	}
	deltaLine := s.Env.MetaLineFor(0xD347A_0000 + lineIdx)
	s.deltaCursor += uint64(size)

	// Replace any previous representation of this logical line; the AMT
	// remap (shared MapWrite) maintains the base's reference count.
	s.dropDelta(logical)
	mapLat := s.MapWrite(logical, base, t)

	de := &deltaEntry{basePhys: base, deltaLine: deltaLine, mask: mask, words: words, size: size}
	s.deltas[logical] = de
	s.deltaBytes += int64(size)
	s.DeltaBytesWr += int64(size)

	// One media write for the (packed) delta line; encrypted like any
	// other line leaving the chip.
	var payload ecc.Line
	payload.SetWord(0, uint64(mask))
	slot := 1
	for w := 0; w < 8 && slot < 8; w++ {
		if mask&(1<<uint(w)) != 0 {
			binary.LittleEndian.PutUint64(payload[slot*8:], words[w])
			slot++
		}
	}
	ct, _ := s.Env.Crypto.Encrypt(deltaLine, &payload)
	s.Env.Energy.Crypto += cfg.Crypto.EncryptEnergy
	wr := s.Env.Device.Write(deltaLine, &ct, t+cfg.Crypto.EncryptLatency)

	s.St.DedupWrites++ // a full line write was avoided
	bd.Encrypt = cfg.Crypto.EncryptLatency
	bd.Queue += wr.Stall
	bd.Media = wr.ServiceLatency
	bd.Metadata = mapLat
	done := wr.AcceptedAt + wr.ServiceLatency
	s.Env.Tel.OnWrite(telemetry.DecDeltaWrite, logical, base, true, at, done, &bd)
	return memctrl.WriteOutcome{
		Done:         done,
		Breakdown:    bd,
		Deduplicated: true,
		PhysAddr:     base,
	}
}

// Read implements memctrl.Scheme: delta lines reconstruct from base +
// delta; full lines use the shared read path.
func (s *BCD) Read(logical uint64, at sim.Time) memctrl.ReadOutcome {
	de, ok := s.deltas[logical]
	if !ok {
		out := s.ReadPath(logical, at)
		s.Env.Tel.OnRead(logical, out.Hit, at, out.Done)
		return out
	}
	s.St.Reads++
	s.DeltaReads++
	_, feEnd := s.Env.Frontend.Reserve(at, s.Env.Cfg.Meta.SRAMLatency)
	// Base line read.
	ct, found, rr := s.Env.Device.Read(de.basePhys, feEnd)
	if !found {
		s.Env.Tel.OnRead(logical, false, at, rr.Done)
		return memctrl.ReadOutcome{Done: rr.Done, Hit: false}
	}
	base := s.Env.Crypto.Decrypt(de.basePhys, &ct)
	// Delta line read (sequential: the mask tells which words to patch).
	_, _, rr2 := s.Env.Device.Read(de.deltaLine, rr.Done)
	out := base
	for w := 0; w < 8; w++ {
		if de.mask&(1<<uint(w)) != 0 {
			out.SetWord(w, de.words[w])
		}
	}
	s.Env.Tel.OnRead(logical, true, at, rr2.Done)
	return memctrl.ReadOutcome{Done: rr2.Done, Data: out, Hit: true}
}

// LogicalBytes returns the bytes of logical data currently mapped.
func (s *BCD) LogicalBytes() int64 {
	return int64(s.AMT.Entries()) * 64
}

// PhysicalBytes returns the physical bytes consumed: full base lines plus
// packed delta payloads.
func (s *BCD) PhysicalBytes() int64 {
	return int64(s.Alloc.Live())*64 + s.deltaBytes
}

// EffectiveCapacity returns logical/physical bytes — BCD's headline metric
// (>1 means the device stores more than its raw capacity).
func (s *BCD) EffectiveCapacity() float64 {
	p := s.PhysicalBytes()
	if p == 0 {
		return 0
	}
	return float64(s.LogicalBytes()) / float64(p)
}

// MetadataNVMM implements memctrl.Scheme.
func (s *BCD) MetadataNVMM() int64 {
	// Delta payloads are data, not metadata; the AMT plus per-base index
	// entries (16 B each, matching BCD's table entries) count here.
	return s.AMT.NVMMBytes() + int64(len(s.fpIndex))*16
}

// MetadataSRAM implements memctrl.Scheme.
func (s *BCD) MetadataSRAM() int64 {
	return s.MetadataSRAMBase() + int64(len(s.simLo)+len(s.simHi))*8
}

// Crash implements memctrl.Crasher: indexes are volatile; deltas and the
// AMT persist (delta descriptors live with the AMT in this model).
func (s *BCD) Crash(now sim.Time) {
	s.CrashBase(now)
	// fp/sim indexes are rebuilt lazily; dropping them only costs future
	// dedup opportunities, never data.
	s.fpIndex = make(map[uint64]uint64)
	s.physFP = make(map[uint64]uint64)
	s.simLo = make(map[uint32]uint64)
	s.simHi = make(map[uint32]uint64)
	s.physSim = make(map[uint64][2]uint32)
}
