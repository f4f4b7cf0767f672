package dedup

import (
	"github.com/esdsim/esd/internal/cache"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/fingerprint"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// DeWrite reproduces the MICRO'18 scheme the paper uses as its
// state-of-the-art comparison: full inline deduplication with lightweight
// CRC fingerprints, a per-address duplication predictor, and speculative
// encryption performed in parallel with fingerprinting when a line is
// predicted unique. Because CRC is weak, every candidate match is verified
// by reading the stored line and comparing byte by byte.
//
// The prediction outcomes map onto the paper's Fig. 4: T1 (predicted dup,
// is dup) serializes CRC -> lookup -> verify; F2 (predicted dup, actually
// unique) additionally pays serial encryption at the end; T3 (predicted
// unique, is unique) hides CRC under encryption; F4 (predicted unique,
// actually dup) wastes the speculative encryption.
type DeWrite struct {
	Base
	fper      fingerprint.Fingerprinter
	fpCache   *cache.Cache[uint64] // CRC -> candidate physical line
	fpIndex   map[uint64]uint64    // NVMM-resident index: CRC -> candidate
	physFP    map[uint64]uint64    // reverse map for freeing
	predictor []uint8              // per-address 2-bit saturating counters
	// global is a wider saturating counter tracking the overall duplicate
	// rate; it breaks ties when the per-address entry is not confident
	// (a weak per-address signal is common because duplication is a
	// property of content, not address).
	global int
}

// NewDeWrite constructs the DeWrite scheme on env.
func NewDeWrite(env *memctrl.Env) *DeWrite {
	s := &DeWrite{
		Base:      NewBase(env),
		fper:      fingerprint.New(fingerprint.KindCRC32, env.Cfg.FP),
		fpIndex:   make(map[uint64]uint64),
		physFP:    make(map[uint64]uint64),
		predictor: make([]uint8, env.Cfg.DeWrite.PredictorEntries),
	}
	entries := env.Cfg.DeWrite.FPCacheBytes / env.Cfg.DeWrite.FPEntryBytes
	if entries < 1 {
		entries = 1
	}
	s.fpCache = cache.New[uint64](entries, 8, cache.LRU)
	env.Tel.CacheCountsFrom("dewrite-fp", &s.fpCache.Stats)
	// Entries start weak (1), not confidently-unique (0): an address never
	// seen should defer to the global duplicate-rate majority.
	for i := range s.predictor {
		s.predictor[i] = 1
	}
	s.OnFree = s.purge
	return s
}

func (s *DeWrite) purge(phys uint64) {
	crc, ok := s.physFP[phys]
	if !ok {
		return
	}
	delete(s.physFP, phys)
	// Only drop the index entry if it still points at the freed line;
	// a CRC bucket may have been re-pointed at newer content.
	if cur, ok := s.fpIndex[crc]; ok && cur == phys {
		delete(s.fpIndex, crc)
		s.fpCache.Delete(crc)
	}
}

// Name implements memctrl.Scheme.
func (s *DeWrite) Name() string { return "dewrite" }

func (s *DeWrite) predIndex(logical uint64) int {
	h := (logical ^ (logical >> 17)) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(s.predictor)))
}

// globalMax bounds the global history counter (centered at globalMax/2).
const globalMax = 256

func (s *DeWrite) predictDup(logical uint64) bool {
	switch s.predictor[s.predIndex(logical)] {
	case 0:
		return false // confidently unique
	case 3:
		return true // confidently duplicate
	default:
		// Weak local signal: follow the global duplicate-rate majority.
		return s.global >= globalMax/2
	}
}

func (s *DeWrite) train(logical uint64, wasDup bool) {
	i := s.predIndex(logical)
	if wasDup {
		if s.predictor[i] < 3 {
			s.predictor[i]++
		}
		if s.global < globalMax {
			s.global++
		}
	} else {
		if s.predictor[i] > 0 {
			s.predictor[i]--
		}
		if s.global > 0 {
			s.global--
		}
	}
}

// lookupCandidate resolves the CRC to a candidate physical line, charging
// the fingerprint-cache probe (already reserved by the caller) and, on a
// cache miss, the serial fingerprint fetch from NVMM.
func (s *DeWrite) lookupCandidate(crc uint64, t sim.Time, bd *stats.Breakdown) (phys uint64, found bool, now sim.Time) {
	if phys, hit := s.fpCache.Get(crc); hit {
		s.St.FPCacheHits++
		return phys, true, t
	}
	s.St.FPCacheMisses++
	rr := s.Env.Device.ReadMeta(s.Env.MetaLineFor(crc), t)
	s.St.FPNVMMLookups++
	bd.FPLookupNVMM += rr.Done - t
	phys, found = s.fpIndex[crc]
	if found {
		s.fpCache.Put(crc, phys)
	}
	return phys, found, rr.Done
}

// verify reads the candidate line and byte-compares it against data.
func (s *DeWrite) verify(candidate uint64, data *ecc.Line, t sim.Time, bd *stats.Breakdown) (equal bool, now sim.Time) {
	ct, ok, rr := s.Env.Device.Read(candidate, t)
	s.St.CompareReads++
	s.Env.ChargeCompare()
	now = rr.Done + s.Env.Cfg.FP.CompareTime
	bd.ReadCompare += now - t
	if !ok {
		return false, now
	}
	s.Env.Crypto.DecryptInPlace(candidate, &ct)
	if ct != *data {
		s.St.CompareMismatches++
		return false, now
	}
	return true, now
}

// Write implements memctrl.Scheme.
func (s *DeWrite) Write(logical uint64, data *ecc.Line, at sim.Time) memctrl.WriteOutcome {
	s.St.Writes++
	cfg := s.Env.Cfg
	d := s.fper.Fingerprint(data)
	// CRC is computed for every line, duplicate or not (§II-B), so its
	// energy is unconditional.
	s.Env.Energy.Fingerprint += s.fper.Energy()
	s.Env.ChargeSRAM()

	var bd stats.Breakdown
	crcProbe := s.fper.Latency() + cfg.Meta.SRAMLatency

	if s.predictDup(logical) {
		s.St.PredDup++
		// Serial path: CRC -> probe -> (NVMM lookup) -> verify read.
		feStart, feEnd := s.Env.Frontend.Reserve(at, crcProbe)
		bd.FPCompute = (feStart - at) + s.fper.Latency()
		bd.FPLookupSRAM = cfg.Meta.SRAMLatency
		t := feEnd
		candidate, found, t := s.lookupCandidate(d.Short, t, &bd)
		if found {
			equal, tv := s.verify(candidate, data, t, &bd)
			t = tv
			if equal {
				mapLat := s.DedupHit(logical, candidate, t)
				bd.Metadata = mapLat
				s.train(logical, true)
				s.Env.Tel.OnWrite(telemetry.DecPredDupDup, logical, candidate, true, at, t+mapLat, &bd)
				return memctrl.WriteOutcome{Done: t + mapLat, Breakdown: bd, Deduplicated: true, PhysAddr: candidate}
			}
		}
		// F2: predicted duplicate but unique — serial encryption tail.
		s.St.Mispredicts++
		s.train(logical, false)
		bd.Encrypt = cfg.Crypto.EncryptLatency
		phys, wr, mapLat := s.StoreUnique(logical, data, t+cfg.Crypto.EncryptLatency)
		s.installFP(d.Short, phys, wr.AcceptedAt)
		bd.Queue += wr.Stall
		bd.Media = wr.ServiceLatency
		bd.Metadata = mapLat
		done := wr.AcceptedAt + wr.ServiceLatency
		s.Env.Tel.OnWrite(telemetry.DecPredDupUnique, logical, phys, false, at, done, &bd)
		return memctrl.WriteOutcome{Done: done, Breakdown: bd, PhysAddr: phys}
	}

	// Predicted unique: CRC and encryption run in parallel — the pipeline
	// is occupied by the CRC+probe only, while the dedicated AES engine
	// produces the ciphertext on the side.
	s.St.PredUnique++
	feStart, feEnd := s.Env.Frontend.Reserve(at, crcProbe)
	bd.FPCompute = (feStart - at) + s.fper.Latency()
	bd.FPLookupSRAM = cfg.Meta.SRAMLatency
	specPhys := s.Alloc.Alloc()
	s.ctBuf = *data
	specCounter := s.Env.Crypto.EncryptSpeculativeInPlace(specPhys, &s.ctBuf)
	s.Env.Energy.Crypto += cfg.Crypto.EncryptEnergy
	encReady := at + cfg.Crypto.EncryptLatency
	t := feEnd

	candidate, found, t := s.lookupCandidate(d.Short, t, &bd)
	if found {
		equal, tv := s.verify(candidate, data, t, &bd)
		t = tv
		if equal {
			// F4: wasted speculative encryption.
			s.St.Mispredicts++
			s.St.WastedEncryptions++
			s.Alloc.Free(specPhys)
			mapLat := s.DedupHit(logical, candidate, t)
			bd.Metadata = mapLat
			s.train(logical, true)
			s.Env.Tel.OnWrite(telemetry.DecPredUniqueDup, logical, candidate, true, at, t+mapLat, &bd)
			return memctrl.WriteOutcome{Done: t + mapLat, Breakdown: bd, Deduplicated: true, PhysAddr: candidate}
		}
	}
	// T3: unique confirmed; the speculative ciphertext is committed. Only
	// the encryption tail not hidden under fingerprinting remains visible.
	s.train(logical, false)
	if encReady > t {
		bd.Encrypt = encReady - t
		t = encReady
	}
	wr, mapLat := s.StorePrepared(logical, specPhys, &s.ctBuf, specCounter, t)
	s.installFP(d.Short, specPhys, wr.AcceptedAt)
	bd.Queue += wr.Stall
	bd.Media = wr.ServiceLatency
	bd.Metadata = mapLat
	done := wr.AcceptedAt + wr.ServiceLatency
	s.Env.Tel.OnWrite(telemetry.DecPredUniqueUnique, logical, specPhys, false, at, done, &bd)
	return memctrl.WriteOutcome{Done: done, Breakdown: bd, PhysAddr: specPhys}
}

// installFP points the CRC bucket at phys and persists the entry off the
// critical path.
func (s *DeWrite) installFP(crc, phys uint64, at sim.Time) {
	if old, ok := s.fpIndex[crc]; ok {
		delete(s.physFP, old)
	}
	s.fpIndex[crc] = phys
	s.physFP[phys] = crc
	s.fpCache.Put(crc, phys)
	s.Env.Device.WriteMeta(s.Env.MetaLineFor(crc), at)
}

// Read implements memctrl.Scheme.
func (s *DeWrite) Read(logical uint64, at sim.Time) memctrl.ReadOutcome {
	out := s.ReadPath(logical, at)
	s.Env.Tel.OnRead(logical, out.Hit, at, out.Done)
	return out
}

// MetadataNVMM implements memctrl.Scheme.
func (s *DeWrite) MetadataNVMM() int64 {
	return int64(len(s.fpIndex))*int64(s.Env.Cfg.DeWrite.FPEntryBytes) + s.AMT.NVMMBytes()
}

// MetadataSRAM implements memctrl.Scheme.
func (s *DeWrite) MetadataSRAM() int64 {
	return int64(s.Env.Cfg.DeWrite.FPCacheBytes) + s.MetadataSRAMBase() +
		int64(len(s.predictor))/4 // 2-bit counters
}

// FPCacheStats exposes fingerprint-cache statistics for experiments.
func (s *DeWrite) FPCacheStats() cache.Stats { return s.fpCache.Stats }

// Crash implements memctrl.Crasher: the fingerprint cache and the
// duplication predictor are volatile and reset; the NVMM-resident index
// and AMT survive.
func (s *DeWrite) Crash(now sim.Time) {
	s.CrashBase(now)
	s.fpCache.Clear()
	for i := range s.predictor {
		s.predictor[i] = 1
	}
	s.global = 0
}
