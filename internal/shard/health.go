package shard

import (
	"github.com/esdsim/esd/internal/media"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/nvm"
)

// This file is the engine's barrier-free device-health surface: everything
// here reads worker-concurrency-safe state (atomics, the devices' health
// locks, per-batch published counter blocks) and therefore stays
// responsive even when a shard is wedged mid-request — the property the
// serving endpoints rely on (see QueueLens). For exact, barrier-ordered
// views use Summary/Snapshots instead.

// LiveOps returns the engine-wide totals of executed requests: writes,
// reads, and writes eliminated by deduplication. They come from the
// counter blocks the shards republish after every batch and inline
// request (see LiveSchemeStats), so they trail by at most one batch per
// shard and cost the write path nothing.
func (e *Engine) LiveOps() (writes, reads, dedup uint64) {
	st := e.LiveSchemeStats()
	return st.Writes, st.Reads, st.DedupWrites
}

// LiveSchemeStats merges the per-shard scheme counter blocks that workers
// republish after every drained batch. The result trails the live state by
// at most one batch per shard.
func (e *Engine) LiveSchemeStats() memctrl.SchemeStats {
	var out memctrl.SchemeStats
	for _, s := range e.shards {
		s.statsMu.Lock()
		st := s.pubStats
		s.statsMu.Unlock()
		out = out.Add(st)
	}
	return out
}

// DeviceHealths returns each shard device's health snapshot (bank/region
// counters, wear histogram, energy split), in shard order.
func (e *Engine) DeviceHealths() []nvm.HealthSnapshot {
	out := make([]nvm.HealthSnapshot, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.env.Device.HealthSnapshot()
	}
	return out
}

// DeviceHealth merges the per-shard snapshots into one device-wide view
// (banks and regions renumbered in shard order).
func (e *Engine) DeviceHealth() nvm.HealthSnapshot {
	return nvm.MergeHealth(e.DeviceHealths())
}

// HybridStats sums the per-shard hybrid DRAM/PCM tier statistics; ok is
// false when the engine's media is plain PCM. Safe to call while the
// workers run (each shard's snapshot is atomics-based; the set is not a
// cross-shard barrier).
func (e *Engine) HybridStats() (media.HybridStats, bool) {
	var out media.HybridStats
	any := false
	for _, s := range e.shards {
		h := s.env.Hybrid()
		if h == nil {
			continue
		}
		any = true
		st := h.Snapshot()
		out.DRAMHits += st.DRAMHits
		out.DRAMMisses += st.DRAMMisses
		out.Promotions += st.Promotions
		out.Demotions += st.Demotions
		out.Writebacks += st.Writebacks
		out.WALAppends += st.WALAppends
		out.AbsorbedWrites += st.AbsorbedWrites
		out.CapacityLines += st.CapacityLines
		out.ResidentLines += st.ResidentLines
		out.DirtyLines += st.DirtyLines
	}
	return out, any
}

// WearSummaries returns each shard device's exact wear summary. Each
// summary is consistent per shard (taken under that device's health lock)
// but the set is not a cross-shard barrier.
func (e *Engine) WearSummaries() []nvm.WearSummary {
	out := make([]nvm.WearSummary, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.env.Device.Wear()
	}
	return out
}
