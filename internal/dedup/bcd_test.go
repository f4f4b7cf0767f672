package dedup

import (
	"testing"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/workload"
	"github.com/esdsim/esd/internal/xrand"
)

// similarLine returns base with n words patched to new values.
func similarLine(base ecc.Line, n int, r *xrand.Rand) ecc.Line {
	out := base
	for i := 0; i < n; i++ {
		out.SetWord(7-i, r.Uint64())
	}
	return out
}

func TestBCDExactDedup(t *testing.T) {
	env := newEnv(t)
	s := NewBCD(env)
	data := line(3)
	d1 := data
	out1 := s.Write(1, &d1, 0)
	d2 := data
	out2 := s.Write(2, &d2, 10*sim.Microsecond)
	if !out2.Deduplicated || out2.PhysAddr != out1.PhysAddr {
		t.Fatal("exact duplicate not eliminated")
	}
	if s.ExactDedups != 1 {
		t.Fatalf("ExactDedups = %d", s.ExactDedups)
	}
	for _, addr := range []uint64{1, 2} {
		if r := s.Read(addr, 20*sim.Microsecond); r.Data != data {
			t.Fatalf("read-back of %d failed", addr)
		}
	}
}

func TestBCDDeltaCompression(t *testing.T) {
	env := newEnv(t)
	s := NewBCD(env)
	r := xrand.New(1)
	base := line(5)
	b := base
	s.Write(1, &b, 0)

	// A line differing in 2 of 8 words: stored as a delta against base.
	variant := similarLine(base, 2, r)
	v := variant
	out := s.Write(2, &v, 10*sim.Microsecond)
	if !out.Deduplicated {
		t.Fatal("similar line not compressed")
	}
	if s.DeltaWrites != 1 {
		t.Fatalf("DeltaWrites = %d", s.DeltaWrites)
	}
	// Read-back reconstructs the variant exactly.
	got := s.Read(2, 20*sim.Microsecond)
	if !got.Hit || got.Data != variant {
		t.Fatal("delta reconstruction failed")
	}
	if s.DeltaReads != 1 {
		t.Fatalf("DeltaReads = %d", s.DeltaReads)
	}
	// The base's own content is untouched.
	if r := s.Read(1, 30*sim.Microsecond); r.Data != base {
		t.Fatal("base corrupted by delta store")
	}
}

func TestBCDTooDifferentBecomesNewBase(t *testing.T) {
	env := newEnv(t)
	s := NewBCD(env)
	r := xrand.New(2)
	base := line(7)
	b := base
	s.Write(1, &b, 0)
	// 5 differing words exceeds MaxDeltaWords.
	variant := similarLine(base, 5, r)
	v := variant
	out := s.Write(2, &v, 10*sim.Microsecond)
	if out.Deduplicated {
		t.Fatal("too-different line compressed")
	}
	if s.BaseWrites != 2 {
		t.Fatalf("BaseWrites = %d", s.BaseWrites)
	}
	if got := s.Read(2, 20*sim.Microsecond); got.Data != variant {
		t.Fatal("read-back failed")
	}
}

func TestBCDEffectiveCapacity(t *testing.T) {
	env := newEnv(t)
	s := NewBCD(env)
	r := xrand.New(3)
	base := line(9)
	b := base
	s.Write(0, &b, 0)
	// 20 near-duplicates of the base, each differing in one word.
	now := sim.Time(0)
	for i := uint64(1); i <= 20; i++ {
		now += 10 * sim.Microsecond
		v := similarLine(base, 1, r)
		s.Write(i, &v, now)
	}
	cap := s.EffectiveCapacity()
	// 21 logical lines; ~1 base (64 B) + 20 deltas (10 B each) = 264 B,
	// i.e. roughly 5x effective capacity.
	if cap < 2 {
		t.Fatalf("effective capacity %.2f, want compression win", cap)
	}
	if s.LogicalBytes() != 21*64 {
		t.Fatalf("logical bytes %d", s.LogicalBytes())
	}
	if s.PhysicalBytes() >= s.LogicalBytes() {
		t.Fatal("no physical saving")
	}
}

func TestBCDOverwriteDeltaWithNewContent(t *testing.T) {
	env := newEnv(t)
	s := NewBCD(env)
	r := xrand.New(4)
	base := line(11)
	b := base
	s.Write(1, &b, 0)
	v1 := similarLine(base, 1, r)
	d := v1
	s.Write(2, &d, 10*sim.Microsecond)
	before := s.PhysicalBytes()
	// Overwrite the delta line with unrelated content.
	other := line(200)
	d = other
	s.Write(2, &d, 20*sim.Microsecond)
	if got := s.Read(2, 30*sim.Microsecond); got.Data != other {
		t.Fatal("overwrite lost data")
	}
	if s.PhysicalBytes() <= before-10 {
		// The delta's bytes were released and a 64 B base added.
		t.Fatalf("capacity accounting off: %d -> %d", before, s.PhysicalBytes())
	}
	// Rewriting the base's logical with new content must not break the
	// other delta holders.
	v2 := similarLine(base, 1, r)
	d = v2
	s.Write(3, &d, 40*sim.Microsecond)
	d = line(111)
	s.Write(1, &d, 50*sim.Microsecond) // base's logical overwritten
	if got := s.Read(3, 60*sim.Microsecond); got.Data != v2 {
		t.Fatal("delta corrupted after its base's logical was overwritten")
	}
}

func TestBCDEndToEndWithOracle(t *testing.T) {
	profile, _ := workload.ByName("x264")
	env := newEnv(t)
	s := NewBCD(env)
	ctl := memctrl.NewController(env, s)
	ctl.VerifyReads = true
	res, err := ctl.Run(workload.Stream(profile, 21, 8000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme.DedupWrites == 0 {
		t.Fatal("BCD eliminated nothing")
	}
	if s.EffectiveCapacity() <= 1 {
		t.Fatalf("effective capacity %.2f <= 1", s.EffectiveCapacity())
	}
}

func TestBCDCrashKeepsData(t *testing.T) {
	env := newEnv(t)
	s := NewBCD(env)
	r := xrand.New(5)
	base := line(13)
	b := base
	s.Write(1, &b, 0)
	v := similarLine(base, 2, r)
	d := v
	s.Write(2, &d, 10*sim.Microsecond)
	s.Crash(20 * sim.Microsecond)
	if got := s.Read(1, 30*sim.Microsecond); got.Data != base {
		t.Fatal("base lost in crash")
	}
	if got := s.Read(2, 40*sim.Microsecond); got.Data != v {
		t.Fatal("delta lost in crash")
	}
	// Dedup indexes are cold but rebuild.
	d2 := base
	if out := s.Write(3, &d2, 50*sim.Microsecond); out.Deduplicated {
		t.Fatal("index survived crash")
	}
	d2 = base
	s.Write(4, &d2, 60*sim.Microsecond)
}

func TestBCDMetadataAccounting(t *testing.T) {
	env := newEnv(t)
	s := NewBCD(env)
	d := line(1)
	s.Write(1, &d, 0)
	if s.MetadataNVMM() <= 0 || s.MetadataSRAM() <= 0 {
		t.Fatal("metadata accounting empty")
	}
}

// TestBCDCompareReadsCountFingerprintMatches: a compare read is the read
// that verifies an exact-fingerprint match, so every one ends in a
// duplicate (FPCacheHits) or a collision (CompareMismatches). The
// similarity base's read checks no fingerprint and is not one.
func TestBCDCompareReadsCountFingerprintMatches(t *testing.T) {
	env := newEnv(t)
	s := NewBCD(env)
	res, err := memctrl.NewController(env, s).Run(workload.NearDupStream(1, 20000, 4096, MaxDeltaWords))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Scheme
	if s.DeltaWrites == 0 || st.FPCacheHits == 0 {
		t.Fatalf("stream exercised no delta (%d) or exact dedup (%d)", s.DeltaWrites, st.FPCacheHits)
	}
	if st.CompareReads != st.FPCacheHits+st.CompareMismatches {
		t.Fatalf("CompareReads = %d, want FPCacheHits %d + CompareMismatches %d",
			st.CompareReads, st.FPCacheHits, st.CompareMismatches)
	}
}
