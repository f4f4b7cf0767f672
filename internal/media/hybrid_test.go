package media

import (
	"strings"
	"testing"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/dram"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/nvm"
	"github.com/esdsim/esd/internal/sim"
)

// testHybrid builds a tiny tier: a 1 MiB PCM device behind a DRAM buffer
// of dramLines lines, WAL at the top of the PCM address space.
func testHybrid(t *testing.T, dramLines int64) *Hybrid {
	t.Helper()
	pcfg := config.Default().PCM
	pcfg.CapacityBytes = 1 << 20
	pcm := nvm.New(pcfg)
	mcfg := config.Media{
		DRAM: config.DRAM{
			CapacityBytes: dramLines * config.CacheLineSize,
			Banks:         2,
			ReadLatency:   15 * sim.Nanosecond,
			WriteLatency:  15 * sim.Nanosecond,
			BusLatency:    4 * sim.Nanosecond,
			ReadEnergy:    0.17,
			WriteEnergy:   0.39,
		},
		PromoteThreshold: 2,
		RefBoost:         2,
		DecayEvery:       1 << 10,
		WALLines:         8,
	}
	walBase := uint64(pcm.Lines()) - 8
	return NewHybrid(pcm, dram.New(mcfg.DRAM), mcfg, walBase, 8)
}

func line(w uint64) ecc.Line {
	var l ecc.Line
	l.SetWord(0, w)
	return l
}

// TestColdWriteGoesToPCM: a first-touch write is below the promotion
// threshold and must land on its PCM home, not in DRAM.
func TestColdWriteGoesToPCM(t *testing.T) {
	h := testHybrid(t, 8)
	l := line(0xA)
	h.Write(7, &l, 0)
	if got, ok := h.PCM().Load(7); !ok || got != l {
		t.Fatal("cold write did not reach the PCM home")
	}
	st := h.Snapshot()
	if st.ResidentLines != 0 || st.WALAppends != 0 {
		t.Fatalf("cold write touched the DRAM tier: %+v", st)
	}
}

// TestHotWritePromotesViaWAL: once a line crosses the promotion threshold
// its writes WAL-persist and install in DRAM, absorbing the PCM home
// write; Load must still return the newest content.
func TestHotWritePromotesViaWAL(t *testing.T) {
	h := testHybrid(t, 8)
	l1, l2 := line(1), line(2)
	h.Write(3, &l1, 0)   // heat 1 -> PCM
	h.Write(3, &l2, 100) // heat 2 >= threshold -> WAL + DRAM
	st := h.Snapshot()
	if st.WALAppends != 1 || st.AbsorbedWrites != 1 || st.ResidentLines != 1 || st.DirtyLines != 1 {
		t.Fatalf("hot write did not take the WAL+DRAM path: %+v", st)
	}
	if got, ok := h.Load(3); !ok || got != l2 {
		t.Fatal("Load does not see the DRAM-resident content")
	}
	// The PCM home still holds the stale first write — durability of the
	// newer content is carried by the WAL until demotion or crash replay.
	if got, _ := h.PCM().Load(3); got != l1 {
		t.Fatal("PCM home unexpectedly rewritten by an absorbed write")
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("audit after promotion: %v", bad)
	}
}

// TestReadPromotesClean: repeated reads of a PCM line promote it with a
// clean fill; a clean resident must match its home byte for byte.
func TestReadPromotesClean(t *testing.T) {
	h := testHybrid(t, 8)
	h.PCM().Store(5, line(0xBEEF))
	h.Read(5, 0)
	h.Read(5, 100)
	st := h.Snapshot()
	if st.ResidentLines != 1 || st.DirtyLines != 0 {
		t.Fatalf("read heat did not promote cleanly: %+v", st)
	}
	if _, hit, _ := h.Read(5, 200); !hit {
		t.Fatal("promoted line not readable")
	}
	if h.Snapshot().DRAMHits == 0 {
		t.Fatal("resident read not served from DRAM")
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("audit after clean promotion: %v", bad)
	}
}

// TestDemotionWritesBackDirty: overflowing the buffer demotes LRU victims;
// dirty victims must be written back to their PCM homes, not dropped.
func TestDemotionWritesBackDirty(t *testing.T) {
	h := testHybrid(t, 2)
	want := map[uint64]ecc.Line{}
	now := sim.Time(0)
	for addr := uint64(0); addr < 6; addr++ {
		l := line(0x100 + addr)
		h.Write(addr, &l, now)
		now += 100
		l2 := line(0x200 + addr)
		h.Write(addr, &l2, now) // crosses threshold -> resident dirty
		now += 100
		want[addr] = l2
	}
	st := h.Snapshot()
	if st.Demotions == 0 || st.Writebacks == 0 {
		t.Fatalf("buffer overflow produced no demotions: %+v", st)
	}
	for addr, w := range want {
		if got, ok := h.Load(addr); !ok || got != w {
			t.Fatalf("line %d lost across demotion", addr)
		}
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("audit after demotion churn: %v", bad)
	}
}

// TestCrashReplaysDirtyResidents: a crash must replay every dirty resident
// into its PCM home before dropping the buffer — no acknowledged write is
// lost.
func TestCrashReplaysDirtyResidents(t *testing.T) {
	h := testHybrid(t, 8)
	l1, l2 := line(7), line(8)
	h.Write(1, &l1, 0)
	h.Write(1, &l2, 100) // resident dirty, home still holds l1
	h.Crash()
	if got, ok := h.PCM().Load(1); !ok || got != l2 {
		t.Fatal("crash lost the acknowledged (WAL-persisted) write")
	}
	st := h.Snapshot()
	if st.ResidentLines != 0 || st.DirtyLines != 0 {
		t.Fatalf("crash left volatile state behind: %+v", st)
	}
	if got, ok := h.Load(1); !ok || got != l2 {
		t.Fatal("post-crash read lost the write")
	}
}

// TestCrashAtWALPersisted injects the crash between the WAL persist and
// the DRAM install: the content exists only as the WAL tail, and recovery
// must still deliver it.
func TestCrashAtWALPersisted(t *testing.T) {
	h := testHybrid(t, 8)
	l1, l2 := line(0xAA), line(0xBB)
	h.Write(9, &l1, 0)
	crashed := false
	h.OnStep = func(s Step) {
		if s == StepWALPersisted && !crashed {
			crashed = true
			h.Crash()
		}
	}
	h.Write(9, &l2, 100)
	if !crashed {
		t.Fatal("StepWALPersisted never fired")
	}
	if got, ok := h.PCM().Load(9); !ok || got != l2 {
		t.Fatal("WAL tail not replayed: acknowledged write lost")
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("audit after mid-protocol crash: %v", bad)
	}
}

// TestRefHintPromotes: the dedup reference signal alone must promote a
// line (clean fill from its home) once it crosses the threshold.
func TestRefHintPromotes(t *testing.T) {
	h := testHybrid(t, 8)
	h.PCM().Store(4, line(0xF00))
	h.RefHint(4, 0)
	st := h.Snapshot()
	if st.ResidentLines != 1 || st.DirtyLines != 0 {
		t.Fatalf("RefBoost=2 >= threshold=2 did not promote: %+v", st)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("audit after hint promotion: %v", bad)
	}
}

// TestAuditCatchesDivergence is the audit's own acceptance test: corrupt a
// clean resident's DRAM copy behind the tier's back and the audit must
// flag the divergence from the PCM home.
func TestAuditCatchesDivergence(t *testing.T) {
	h := testHybrid(t, 8)
	h.PCM().Store(2, line(1))
	h.Read(2, 0)
	h.Read(2, 100) // clean resident
	h.DRAM().Store(2, line(0xBAD))
	bad := h.Audit()
	if len(bad) == 0 {
		t.Fatal("corrupted clean resident went undetected")
	}
	if !strings.Contains(strings.Join(bad, "\n"), "diverges") {
		t.Fatalf("audit caught something else: %v", bad)
	}
}

// TestStepString pins the step names used in crash-table failure reports.
func TestStepString(t *testing.T) {
	if StepWALPersisted.String() != "wal-persisted" || StepDRAMInstalled.String() != "dram-installed" {
		t.Fatal("step names changed")
	}
	if Step(99).String() != "unknown-hybrid-step" {
		t.Fatal("unknown step name changed")
	}
}

// TestHitRate pins the rate arithmetic including the zero-traffic case.
func TestHitRate(t *testing.T) {
	if (HybridStats{}).HitRate() != 0 {
		t.Fatal("zero-traffic hit rate not 0")
	}
	if got := (HybridStats{DRAMHits: 3, DRAMMisses: 1}).HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

// TestMediaStatsFoldsDRAMEnergy: the merged media stats must include the
// DRAM buffer's energy while keeping Reads/Writes PCM-only (they feed
// wear interpretation).
func TestMediaStatsFoldsDRAMEnergy(t *testing.T) {
	h := testHybrid(t, 8)
	l := line(1)
	h.Write(0, &l, 0)
	h.Write(0, &l, 100) // DRAM install
	st := h.MediaStats()
	pcmOnly := h.PCM().MediaStats()
	if st.MediaEnergy <= pcmOnly.MediaEnergy {
		t.Fatal("DRAM energy not folded into MediaEnergy")
	}
	if st.Writes != pcmOnly.Writes {
		t.Fatal("DRAM writes leaked into the PCM wear counters")
	}
}
