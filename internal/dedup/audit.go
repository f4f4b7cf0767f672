package dedup

import (
	"encoding/binary"
	"fmt"
)

// This file implements the white-box invariant audits behind
// internal/check: each scheme exposes an Audit-style method returning a
// list of human-readable violations (empty = consistent). Audits are pure
// observers — they walk the authoritative maps directly and never touch
// the timed device or cache paths, so running one between operations
// perturbs neither latency accounting nor cache recency.

// AuditBase checks the mapping/refcount machinery every deduplicating
// scheme shares:
//
//   - refcount conservation: for every physical line, the stored reference
//     count equals the number of AMT entries mapping to it (in both
//     directions — no overcounts, no orphaned refcount entries);
//   - the AMT is a function into the allocated lines: every mapped
//     physical line lies below the allocator's high water, and so inside
//     the data region;
//   - no dangling lines: the allocator's live count equals the number of
//     referenced physical lines (every allocation is reachable and every
//     reachable line is allocated).
func (b *Base) AuditBase() []string {
	var bad []string
	hw := b.Alloc.HighWater()
	if uint64(cap(b.auditRefs)) < hw {
		b.auditRefs = make([]uint32, hw)
	}
	counts := b.auditRefs[:hw]
	clear(counts)
	b.AMT.Range(func(logical, phys uint64) bool {
		if phys >= hw {
			bad = append(bad, fmt.Sprintf("amt: logical %d maps to phys %d, which was never allocated (%d lines ever allocated)", logical, phys, hw))
		} else {
			counts[phys]++
		}
		return true
	})
	// Each referenced line's count is checked and then zeroed, so what is
	// left in counts are AMT targets without a refcount.
	b.Refs.Range(func(phys uint64, c uint32) bool {
		switch {
		case phys >= hw:
			bad = append(bad, fmt.Sprintf("refcount: phys %d holds %d refs but was never allocated (%d lines ever allocated)", phys, c, hw))
		case counts[phys] == 0:
			bad = append(bad, fmt.Sprintf("refcount: phys %d holds %d refs but no AMT entry points at it", phys, c))
		case counts[phys] != c:
			bad = append(bad, fmt.Sprintf("refcount: phys %d holds %d refs but %d AMT entries point at it", phys, c, counts[phys]))
		}
		if phys < hw {
			counts[phys] = 0
		}
		return true
	})
	for phys, want := range counts {
		if want != 0 {
			bad = append(bad, fmt.Sprintf("refcount: phys %d holds 0 refs but %d AMT entries point at it", phys, want))
		}
	}
	if live, refd := b.Alloc.Live(), uint64(b.Refs.Lines()); live != refd {
		bad = append(bad, fmt.Sprintf("alloc: %d live lines but %d referenced lines (dangling or leaked)", live, refd))
	}
	return bad
}

// AuditIndex checks SHA1's fingerprint structures: the NVMM index and the
// reverse map must be a bijection over live (referenced) physical lines,
// and every cached fingerprint summary must agree with the index.
func (s *SHA1) AuditIndex() []string {
	var bad []string
	for key, phys := range s.fpIndex {
		if rev, ok := s.physFP[phys]; !ok || rev != key {
			bad = append(bad, fmt.Sprintf("sha1: fpIndex entry for phys %d has no matching reverse map", phys))
		}
		if s.Refs.Count(phys) == 0 {
			bad = append(bad, fmt.Sprintf("sha1: fpIndex points at unreferenced phys %d (stale entry could dedup onto freed storage)", phys))
		}
	}
	for phys, key := range s.physFP {
		if cur, ok := s.fpIndex[key]; !ok || cur != phys {
			bad = append(bad, fmt.Sprintf("sha1: reverse map entry for phys %d not in fpIndex", phys))
		}
	}
	s.fpCache.Range(func(short uint64, phys uint64, _ int) bool {
		key, ok := s.physFP[phys]
		if !ok || binary.LittleEndian.Uint64(key[:8]) != short {
			bad = append(bad, fmt.Sprintf("sha1: fp cache entry %#x -> phys %d disagrees with the NVMM index", short, phys))
		}
		return true
	})
	return bad
}

// AuditIndex checks DeWrite's fingerprint structures: installFP keeps
// fpIndex and the reverse map a bijection (re-pointing a CRC bucket drops
// the old reverse entry), purge removes both sides when a line is freed,
// and the on-chip cache mirrors the index exactly.
func (s *DeWrite) AuditIndex() []string {
	var bad []string
	for crc, phys := range s.fpIndex {
		if rev, ok := s.physFP[phys]; !ok || rev != crc {
			bad = append(bad, fmt.Sprintf("dewrite: fpIndex %#x -> phys %d has no matching reverse map", crc, phys))
		}
		if s.Refs.Count(phys) == 0 {
			bad = append(bad, fmt.Sprintf("dewrite: fpIndex %#x points at unreferenced phys %d", crc, phys))
		}
	}
	for phys, crc := range s.physFP {
		if cur, ok := s.fpIndex[crc]; !ok || cur != phys {
			bad = append(bad, fmt.Sprintf("dewrite: reverse map phys %d -> %#x not in fpIndex", phys, crc))
		}
	}
	s.fpCache.Range(func(crc uint64, phys uint64, _ int) bool {
		if cur, ok := s.fpIndex[crc]; !ok || cur != phys {
			bad = append(bad, fmt.Sprintf("dewrite: fp cache entry %#x -> phys %d disagrees with the NVMM index", crc, phys))
		}
		return true
	})
	return bad
}
