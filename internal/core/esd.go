// Package core implements ESD, the paper's contribution: an ECC-assisted,
// selective deduplication scheme for encrypted non-volatile main memory.
//
// The write path (§III):
//
//  1. The ECC word the memory controller computes anyway for each evicted
//     64-byte line doubles as a zero-cost fingerprint. Different ECC =>
//     definitively different content, with no hash latency or energy.
//  2. The EFIT (ECC-based Fingerprint Index Table) lives *only* in the
//     memory-controller SRAM cache — never in NVMM — and is managed by the
//     LRCU (Least-Reference-Count-Used) policy so fingerprints with high
//     reference counts survive. An EFIT miss means "treat as unique and
//     write": selective deduplication never performs a fingerprint lookup
//     in NVMM, eliminating the NVMM_lookup bottleneck of full dedup.
//  3. On an EFIT hit, the candidate line is read from NVMM (cheap relative
//     to a write, by NVM read/write asymmetry) and compared byte by byte,
//     so an ECC collision can never deduplicate different data.
//  4. The AMT maps logical to physical lines; it is NVMM-resident with a
//     hot-entry SRAM cache (shared plumbing in package memctrl).
//
// referH saturates at one byte; a duplicate whose entry exceeds the limit
// is rewritten as new content, exactly as §III-D prescribes, and the EFIT
// undergoes a periodic refresh that decays every reference count.
package core

import (
	"github.com/esdsim/esd/internal/cache"
	"github.com/esdsim/esd/internal/dedup"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/sparse"
	"github.com/esdsim/esd/internal/stats"
	"github.com/esdsim/esd/internal/telemetry"
)

// ESD is the ECC-assisted selective deduplication scheme.
type ESD struct {
	dedup.Base
	name   string               // scheme name ("esd", or "esd+caram" on hybrid media)
	efit   *cache.Cache[uint64] // ECC fingerprint -> physical line
	physFP sparse.Map[uint64]   // physical line -> fingerprint (for purge)

	// DisableLRCU switches the EFIT cache to plain LRU; used by the
	// Fig. 18 "w/o LRCU" ablation.
	DisableLRCU bool
	// DisableCompare skips the byte-by-byte verification (UNSAFE: an
	// ablation quantifying what the comparison read costs and why it is
	// required for correctness).
	DisableCompare bool

	// Batch write scratch: deferred unique stores plus the fingerprint and
	// line-pointer buffers EncodeLines works over, and the one-op batch a
	// scalar Write runs as. Reused across batches so the write path stays
	// allocation-free.
	def      dedup.Deferred
	fpBuf    []ecc.Fingerprint
	linePtrs []*ecc.Line
	one      [1]memctrl.BatchWrite
	// touchSink is the word touch's loads fold into; storing it keeps
	// the compiler from dropping them.
	touchSink uint64
}

// Option configures an ESD instance at construction.
type Option func(*options)

type options struct {
	efitBytes int
	policy    cache.Policy
	compare   bool
	name      string
}

// WithEFITCacheBytes overrides the EFIT cache capacity (Fig. 18 sweep).
func WithEFITCacheBytes(n int) Option {
	return func(o *options) { o.efitBytes = n }
}

// WithLRU replaces LRCU with plain LRU (Fig. 18 "w/o LRCU").
func WithLRU() Option {
	return func(o *options) { o.policy = cache.LRU }
}

// WithoutCompare disables byte-by-byte verification (unsafe ablation).
func WithoutCompare() Option {
	return func(o *options) { o.compare = false }
}

// WithName overrides the reported scheme name. The ESD write path is
// identical on plain and hybrid media; the hybrid configuration
// (ESD+CARAM) differs only in the Env's media backend, so it reuses this
// implementation under its own name.
func WithName(name string) Option {
	return func(o *options) { o.name = name }
}

// New constructs ESD on env.
func New(env *memctrl.Env, opts ...Option) *ESD {
	o := options{
		efitBytes: env.Cfg.Meta.EFITCacheBytes,
		policy:    cache.LRCU,
		compare:   true,
		name:      "esd",
	}
	for _, fn := range opts {
		fn(&o)
	}
	entries := o.efitBytes / env.Cfg.Meta.EFITEntryBytes
	if entries < 1 {
		entries = 1
	}
	s := &ESD{
		Base:           dedup.NewBase(env),
		name:           o.name,
		efit:           cache.New[uint64](entries, 8, o.policy),
		DisableLRCU:    o.policy != cache.LRCU,
		DisableCompare: !o.compare,
	}
	env.Tel.EFITFrom(&s.efit.Stats, s.efit.Len)
	s.OnFree = s.purge
	return s
}

// purge drops the EFIT entry pointing at a recycled physical line so stale
// fingerprints can never deduplicate onto freed storage.
func (s *ESD) purge(phys uint64) {
	fp, ok := s.physFP.Get(phys)
	if !ok {
		return
	}
	s.physFP.Delete(phys)
	if cur, hit := s.efit.Peek(fp); hit && cur == phys {
		s.efit.Delete(fp)
	}
}

// Name implements memctrl.Scheme.
func (s *ESD) Name() string { return s.name }

// Write implements memctrl.Scheme: the ESD write path of Fig. 9, run as a
// one-op batch.
func (s *ESD) Write(logical uint64, data *ecc.Line, at sim.Time) memctrl.WriteOutcome {
	op := &s.one[0]
	op.Logical, op.Data, op.At = logical, data, at
	s.WriteBatch(s.one[:])
	return op.Out
}

// WriteBatch implements memctrl.BatchWriter, and is ESD's one write
// kernel: the per-op decision sequence runs in op order, with the fixed
// kernel costs amortized — all fingerprints through one ecc.EncodeLines
// pass (the ECC word is a by-product of the controller's ECC logic: zero
// marginal latency and energy, §III-C), all unique-store pads through one
// batched AES pass at flush time. Counters are committed per op at
// decision time (StoreUniqueDeferred), so counter state and the
// pad-uniqueness invariant do not depend on how writes are grouped. A
// one-op batch skips the touch stage: it has no misses to overlap.
func (s *ESD) WriteBatch(ops []memctrl.BatchWrite) {
	n := len(ops)
	if cap(s.fpBuf) < n {
		s.fpBuf = make([]ecc.Fingerprint, n)
		s.linePtrs = make([]*ecc.Line, n)
	}
	fps, lines := s.fpBuf[:n], s.linePtrs[:n]
	for i := range ops {
		lines[i] = ops[i].Data
	}
	ecc.EncodeLines(lines, fps)
	if n > 1 {
		s.touch(ops, fps)
	}
	for i := range ops {
		ops[i].Out = s.writeFP(ops, i, uint64(fps[i]))
	}
	s.flushBatch(ops)
}

// touch is the batch's touch stage: with every fingerprint and address
// known up front, it reads ahead what the decision loop will read, so the
// host cache misses of all ops overlap instead of stalling op by op. The
// first pass touches each op's EFIT set and its AMT set and table entry;
// the second, from what those loads brought in, the current mapping's
// reference count and an EFIT candidate's media line and write counter.
// Two passes, because the second pass's addresses and branches depend on
// the first pass's loads: split, neither pass waits on a miss of its own.
// Earlier ops may change what a later op finds, so the touched lines are
// hints; the decisions still read live state, one op at a time. The touch
// is read-only — no statistic, recency tick, probe callback, device
// timing or telemetry moves.
func (s *ESD) touch(ops []memctrl.BatchWrite, fps []ecc.Fingerprint) {
	var sum uint64
	for i := range ops {
		v, w := s.efit.Prefetch(uint64(fps[i]))
		sum += v + w + s.AMT.Prefetch(ops[i].Logical)
	}
	for i := range ops {
		if prev, ok := s.AMT.Mapping(ops[i].Logical); ok {
			sum += uint64(s.Refs.Count(prev))
		}
		if cand, hit := s.efit.Peek(uint64(fps[i])); hit {
			sum += s.TouchLine(cand)
		}
	}
	s.touchSink = sum
}

// writeFP runs the ESD write decision for one op, batch[slot]. Unique
// stores are deferred into s.def, and flushBatch finalizes their
// media-side outcome fields.
func (s *ESD) writeFP(batch []memctrl.BatchWrite, slot int, fp uint64) memctrl.WriteOutcome {
	logical, data, at := batch[slot].Logical, batch[slot].Data, batch[slot].At
	s.St.Writes++
	cfg := s.Env.Cfg

	// The only serial front-end work is the EFIT SRAM probe.
	s.Env.ChargeSRAM()
	feStart, feEnd := s.Env.Frontend.Reserve(at, cfg.Meta.SRAMLatency)
	bd := stats.Breakdown{
		Queue:        feStart - at,
		FPLookupSRAM: cfg.Meta.SRAMLatency,
	}
	t := feEnd

	if candidate, refCount, hit := s.efit.GetRef(fp); hit {
		s.St.FPCacheHits++
		equal := true
		if !s.DisableCompare {
			// Similar, not yet identical: fetch the candidate and compare
			// byte by byte (§III-D), exploiting cheap NVM reads.
			if s.def.Has(candidate) {
				// The candidate's ciphertext is still pending from an
				// earlier op of this batch: flush so the compare read
				// observes it, as if every earlier op had completed.
				s.flushBatch(batch)
			}
			ct, ok, rr := s.Env.Device.Read(candidate, t)
			s.St.CompareReads++
			s.Env.ChargeCompare()
			tv := rr.Done + cfg.FP.CompareTime
			bd.ReadCompare = tv - t
			t = tv
			if ok {
				s.Env.Crypto.DecryptInPlace(candidate, &ct)
				equal = ct == *data
			} else {
				equal = false
			}
		}
		if equal {
			// Duplicate confirmed. Saturating referH: beyond the limit the
			// line is treated as brand-new content (§III-D).
			if refCount >= cfg.ESD.ReferHMax {
				s.St.ReferHOverflows++
				return s.writeUnique(logical, data, fp, t, bd, true, telemetry.DecUniqueReferH, slot)
			}
			s.efit.Touch(fp, cfg.ESD.ReferHMax)
			s.St.DupByCache++
			mapLat := s.DedupHit(logical, candidate, t)
			bd.Metadata = mapLat
			s.Env.Tel.OnWrite(telemetry.DecDupFPCache, logical, candidate, true, at, t+mapLat, &bd)
			return memctrl.WriteOutcome{Done: t + mapLat, Breakdown: bd, Deduplicated: true, PhysAddr: candidate}
		}
		// ECC collision: genuinely different content behind the same
		// fingerprint. The line is unique; the existing entry stays.
		s.St.CompareMismatches++
		return s.writeUnique(logical, data, fp, t, bd, false, telemetry.DecUniqueCollision, slot)
	}

	// EFIT miss: selective deduplication treats the line as non-duplicate
	// immediately — no fingerprint store in NVMM, no NVMM lookup, ever.
	s.St.FPCacheMisses++
	return s.writeUnique(logical, data, fp, t, bd, true, telemetry.DecUniqueFPMiss, slot)
}

// writeUnique encrypts and stores a unique line, optionally (re)pointing
// the EFIT entry for fp at the new physical line. t is the current
// pipeline time, dec the telemetry decision flushBatch reports. The store
// is deferred: Done, Queue and Media arrive when flushBatch fills them
// from the batched device writes.
func (s *ESD) writeUnique(logical uint64, data *ecc.Line, fp uint64, t sim.Time, bd stats.Breakdown, installFP bool, dec telemetry.Decision, slot int) memctrl.WriteOutcome {
	cfg := s.Env.Cfg
	// The dedicated AES engine adds latency without occupying the
	// controller pipeline.
	bd.Encrypt = cfg.Crypto.EncryptLatency
	phys, mapLat := s.StoreUniqueDeferred(&s.def, logical, data, t+cfg.Crypto.EncryptLatency, slot, uint8(dec), 0)
	if installFP {
		// Re-pointing an existing entry (e.g. after a referH overflow)
		// starts a fresh reference count, so delete-then-insert.
		if old, had := s.efit.Pop(fp); had {
			s.physFP.Delete(old)
		}
		if ev, evicted := s.efit.PutWithRef(fp, phys, 1); evicted {
			// LRCU victim: the fingerprint simply leaves the controller;
			// there is no NVMM copy to maintain (selective dedup).
			if v, ok := s.physFP.Get(ev.Value); ok && v == ev.Key {
				s.physFP.Delete(ev.Value)
			}
			s.Env.Tel.OnEFITEvict(ev.Key, ev.Ref, t)
		}
		s.physFP.Set(phys, fp)
	}
	bd.Metadata = mapLat
	return memctrl.WriteOutcome{Breakdown: bd, PhysAddr: phys}
}

// flushBatch drains the deferred stores — one batched pad pass, device
// writes in op order — and finalizes the outcomes of the ops they belong
// to. Called at batch end and mid-batch when a compare read targets a
// still-pending physical line.
func (s *ESD) flushBatch(ops []memctrl.BatchWrite) {
	if s.def.Len() == 0 {
		return
	}
	s.def.Flush(s.Env)
	entries := s.def.Entries()
	for i := range entries {
		p := &entries[i]
		op := &ops[p.Slot]
		out := &op.Out
		out.Breakdown.Queue += p.Wr.Stall
		out.Breakdown.Media = p.Wr.ServiceLatency
		out.Done = p.Wr.AcceptedAt + p.Wr.ServiceLatency
		s.Env.Tel.OnWrite(telemetry.Decision(p.Tag), p.Logical, p.Phys, false, op.At, out.Done, &out.Breakdown)
	}
	s.def.Reset()
}

// Read implements memctrl.Scheme.
func (s *ESD) Read(logical uint64, at sim.Time) memctrl.ReadOutcome {
	out := s.ReadPath(logical, at)
	s.Env.Tel.OnRead(logical, out.Hit, at, out.Done)
	return out
}

// Tick implements memctrl.Scheme: the periodic LRCU refresh that subtracts
// a fixed value from every cached reference count (§III-D).
func (s *ESD) Tick(sim.Time) {
	if !s.DisableLRCU {
		s.efit.DecayAll(s.Env.Cfg.ESD.RefreshDecay)
	}
}

// TickInterval implements memctrl.Scheme.
func (s *ESD) TickInterval() sim.Time {
	if s.DisableLRCU {
		return 0
	}
	return s.Env.Cfg.ESD.RefreshInterval
}

// MetadataNVMM implements memctrl.Scheme: only the AMT lives in NVMM; the
// EFIT has no NVMM-resident copy at all — the headline space saving of
// Fig. 19.
func (s *ESD) MetadataNVMM() int64 { return s.AMT.NVMMBytes() }

// MetadataSRAM implements memctrl.Scheme.
func (s *ESD) MetadataSRAM() int64 {
	return int64(s.efit.Capacity())*int64(s.Env.Cfg.Meta.EFITEntryBytes) + s.MetadataSRAMBase()
}

// EFITStats exposes EFIT cache statistics (Fig. 18).
func (s *ESD) EFITStats() cache.Stats { return s.efit.Stats }

// EFITLen reports the number of live EFIT entries.
func (s *ESD) EFITLen() int { return s.efit.Len() }

// Crash implements memctrl.Crasher. ESD's entire fingerprint state — the
// EFIT — is volatile by design and simply vanishes: there is no NVMM copy
// to recover or keep consistent (§III-E), deduplication restarts cold, and
// every logical line remains readable through the (eADR-drained) AMT.
func (s *ESD) Crash(now sim.Time) {
	s.CrashBase(now)
	s.efit.Clear()
	s.physFP = sparse.Map[uint64]{}
}
