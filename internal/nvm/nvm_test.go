package nvm

import (
	"testing"
	"testing/quick"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/sim"
	"github.com/esdsim/esd/internal/xrand"
	"github.com/esdsim/esd/internal/xrand/quicktest"
)

func testCfg() config.PCM {
	cfg := config.Default().PCM
	cfg.CapacityBytes = 1 << 26 // 64 MiB keeps test address math small
	return cfg
}

func TestReadWriteFunctionalRoundTrip(t *testing.T) {
	d := New(testCfg())
	line := ecc.Line{1, 2, 3}
	d.Write(10, &line, 0)
	got, ok, _ := d.Read(10, 1000*sim.Nanosecond)
	if !ok || got != line {
		t.Fatalf("Read(10) = %v, ok=%v", got[:4], ok)
	}
	if _, ok, _ := d.Read(11, 2000*sim.Nanosecond); ok {
		t.Fatal("never-written line reported ok")
	}
}

func TestReadTimingIdleBank(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	_, _, res := d.Read(0, 0)
	if res.Start != 0 {
		t.Fatalf("idle read started at %v", res.Start)
	}
	if want := cfg.ReadLatency + cfg.BusLatency; res.Done != want {
		t.Fatalf("idle read done at %v, want %v", res.Done, want)
	}
	if res.QueueDelay != 0 {
		t.Fatalf("idle read queue delay %v", res.QueueDelay)
	}
}

func TestBackToBackReadsOnSameBankQueue(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	nBanks := uint64(cfg.Banks)
	_, _, r1 := d.Read(0, 0)
	_, _, r2 := d.Read(nBanks, 0) // same bank as addr 0
	if r2.Start != r1.Start+cfg.ReadLatency {
		t.Fatalf("second read started %v, want %v", r2.Start, r1.Start+cfg.ReadLatency)
	}
	if r2.QueueDelay != cfg.ReadLatency {
		t.Fatalf("second read queue delay = %v", r2.QueueDelay)
	}
}

func TestReadsOnDifferentBanksDoNotInterfere(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	_, _, r1 := d.Read(0, 0)
	_, _, r2 := d.Read(1, 0) // different bank
	if r1.QueueDelay != 0 || r2.QueueDelay != 0 {
		t.Fatal("parallel banks queued")
	}
}

func TestPostedWriteIsInstantWhenQueueHasRoom(t *testing.T) {
	d := New(testCfg())
	res := d.Write(0, &ecc.Line{}, 500)
	if res.Stall != 0 || res.AcceptedAt != 500 {
		t.Fatalf("posted write result %+v", res)
	}
}

func TestFullWriteQueueStallsWriter(t *testing.T) {
	cfg := testCfg()
	cfg.WriteQueueDepth = 2
	d := New(cfg)
	// Three rapid writes to the same bank: first two fill the queue, the
	// third must stall for one media write time (the bank starts draining
	// the oldest entry when forced).
	bankStride := uint64(cfg.Banks)
	d.Write(0, &ecc.Line{}, 0)
	d.Write(bankStride, &ecc.Line{}, 0)
	res := d.Write(2*bankStride, &ecc.Line{}, 0)
	if res.Stall != cfg.WriteLatency {
		t.Fatalf("third write stall = %v, want %v", res.Stall, cfg.WriteLatency)
	}
}

func TestReadPriorityBypassesQueuedWrites(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	bankStride := uint64(cfg.Banks)
	// Post several writes at t=0; none have started (they drain lazily).
	for i := uint64(0); i < 4; i++ {
		d.Write(i*bankStride, &ecc.Line{}, 0)
	}
	// A read arriving immediately must not wait behind all four writes;
	// at most the one write that already started occupies the bank.
	_, _, res := d.Read(0, 1*sim.Nanosecond)
	if res.QueueDelay > cfg.WriteLatency {
		t.Fatalf("read waited %v behind posted writes, want <= one write (%v)",
			res.QueueDelay, cfg.WriteLatency)
	}
}

func TestIdleGapsDrainWrites(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	d.Write(0, &ecc.Line{}, 0)
	d.Write(uint64(cfg.Banks), &ecc.Line{}, 0)
	// After a long idle period both writes have drained; a read sees an
	// idle bank.
	_, _, res := d.Read(0, 10*cfg.WriteLatency)
	if res.QueueDelay != 0 {
		t.Fatalf("read after idle gap queued %v", res.QueueDelay)
	}
	if d.QueuedWrites() != 0 {
		t.Fatalf("%d writes still queued after drain", d.QueuedWrites())
	}
}

func TestFlushDrainsEverything(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	for i := uint64(0); i < 10; i++ {
		d.Write(i*uint64(cfg.Banks), &ecc.Line{}, 0)
	}
	idle := d.Flush(0)
	if d.QueuedWrites() != 0 {
		t.Fatal("Flush left queued writes")
	}
	if idle < 10*cfg.WriteLatency {
		t.Fatalf("flush idle time %v too small for 10 serialized writes", idle)
	}
}

func TestEnergyAccounting(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	d.Write(0, &ecc.Line{}, 0)
	d.Read(0, 0)
	d.Read(0, 0)
	want := cfg.WriteEnergy + 2*cfg.ReadEnergy
	if d.Stats.MediaEnergy != want {
		t.Fatalf("media energy = %v, want %v", d.Stats.MediaEnergy, want)
	}
}

func TestWearTracking(t *testing.T) {
	d := New(testCfg())
	for i := 0; i < 5; i++ {
		d.Write(7, &ecc.Line{byte(i)}, sim.Time(i)*sim.Microsecond)
	}
	d.Write(8, &ecc.Line{}, 0)
	d.SyncHealth() // publish staged accounting before exact assertions
	if d.WearOf(7) != 5 || d.WearOf(8) != 1 {
		t.Fatalf("wear = %d/%d, want 5/1", d.WearOf(7), d.WearOf(8))
	}
	w := d.Wear()
	if w.TotalWrites != 6 || w.LinesTouched != 2 || w.MaxWear != 5 || w.MeanWear != 3 {
		t.Fatalf("wear summary %+v", w)
	}
}

func TestWearEmptyDevice(t *testing.T) {
	d := New(testCfg())
	if w := d.Wear(); w.TotalWrites != 0 || w.LinesTouched != 0 {
		t.Fatalf("empty wear summary %+v", w)
	}
}

func TestAddressBeyondCapacityPanics(t *testing.T) {
	d := New(testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range address did not panic")
		}
	}()
	d.Write(uint64(d.Lines()), &ecc.Line{}, 0)
}

func TestLoadStoreBypassTiming(t *testing.T) {
	d := New(testCfg())
	d.Store(3, ecc.Line{9})
	if d.Stats.Writes != 0 {
		t.Fatal("Store counted as a timed write")
	}
	l, ok := d.Load(3)
	if !ok || l[0] != 9 {
		t.Fatal("Load did not see Store")
	}
	if d.Stats.Reads != 0 {
		t.Fatal("Load counted as a timed read")
	}
}

func TestUtilizationBounds(t *testing.T) {
	cfg := testCfg()
	d := New(cfg)
	if d.Utilization(0) != 0 {
		t.Fatal("zero-horizon utilization != 0")
	}
	d.Read(0, 0)
	u := d.Utilization(cfg.ReadLatency * sim.Time(cfg.Banks))
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestLatestWriteWins(t *testing.T) {
	check := func(seed uint64) bool {
		d := New(testCfg())
		r := xrand.New(seed)
		want := map[uint64]ecc.Line{}
		now := sim.Time(0)
		for i := 0; i < 300; i++ {
			addr := r.Uint64n(1024)
			var l ecc.Line
			l.SetWord(0, r.Uint64())
			d.Write(addr, &l, now)
			want[addr] = l
			now += sim.Time(r.Intn(200)) * sim.Nanosecond
		}
		for addr, w := range want {
			got, ok, _ := d.Read(addr, now)
			if !ok || got != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, quicktest.Config(t, 20)); err != nil {
		t.Fatal(err)
	}
}

func TestTimeNeverRegresses(t *testing.T) {
	// Completion times returned by the device must be >= submission times
	// under arbitrary interleavings.
	check := func(seed uint64) bool {
		d := New(testCfg())
		r := xrand.New(seed)
		now := sim.Time(0)
		for i := 0; i < 500; i++ {
			addr := r.Uint64n(256)
			if r.Bool(0.5) {
				_, _, res := d.Read(addr, now)
				if res.Start < now || res.Done < res.Start {
					return false
				}
			} else {
				res := d.Write(addr, &ecc.Line{}, now)
				if res.AcceptedAt < now || res.Stall < 0 {
					return false
				}
			}
			now += sim.Time(r.Intn(100)) * sim.Nanosecond
		}
		return true
	}
	if err := quick.Check(check, quicktest.Config(t, 20)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeviceWrite(b *testing.B) {
	b.ReportAllocs()
	d := New(testCfg())
	r := xrand.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 18)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(addrs[i%len(addrs)], &ecc.Line{}, sim.Time(i)*100*sim.Nanosecond)
	}
}

// wearSink keeps BenchmarkDeviceWear's walks from being optimized away.
var wearSink WearSummary

// BenchmarkDeviceWear times the exact wear walk on one benchmark shard's
// shape: a 256 MiB device with 34 600 data lines written from line 0 and
// 20 300 hash-scattered metadata lines in its top quarter.
func BenchmarkDeviceWear(b *testing.B) {
	cfg := config.Default().PCM
	cfg.CapacityBytes = 256 << 20
	d := New(cfg)
	var line ecc.Line
	now := sim.Time(0)
	for a := uint64(0); a < 34_600; a++ {
		d.Write(a, &line, now)
		now += 100 * sim.Nanosecond
	}
	first := uint64(d.Lines()) * 3 / 4
	for i := uint64(0); i < 20_300; i++ {
		// Fibonacci hashing onto the quarter's 20 address bits.
		d.WriteMeta(first+(i*0x9E3779B97F4A7C15)>>44, now)
		now += 100 * sim.Nanosecond
	}
	d.SyncHealth()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wearSink = d.Wear()
	}
}
