package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/esdsim/esd/internal/xrand"
	"github.com/esdsim/esd/internal/xrand/quicktest"
)

func TestPutGetRoundTrip(t *testing.T) {
	c := New[string](16, 4, LRU)
	c.Put(1, "one")
	c.Put(2, "two")
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if v, ok := c.Get(2); !ok || v != "two" {
		t.Fatalf("Get(2) = %q, %v", v, ok)
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("Get(3) hit on absent key")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := New[int](8, 8, LRU)
	c.Put(5, 50)
	c.Put(5, 55)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Put of same key", c.Len())
	}
	if v, _ := c.Get(5); v != 55 {
		t.Fatalf("updated value = %d, want 55", v)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Fully associative, capacity 3: fill, touch 1, insert 4 => 2 evicted.
	c := New[int](3, 3, LRU)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1)
	ev, evicted := c.Put(4, 4)
	if !evicted || ev.Key != 2 {
		t.Fatalf("evicted %+v (evicted=%v), want key 2", ev, evicted)
	}
	if !c.Contains(1) || !c.Contains(3) || !c.Contains(4) {
		t.Fatal("wrong survivors after LRU eviction")
	}
}

func TestFIFOEvictionIgnoresRecency(t *testing.T) {
	c := New[int](3, 3, FIFO)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1) // should not save key 1 under FIFO
	ev, evicted := c.Put(4, 4)
	if !evicted || ev.Key != 1 {
		t.Fatalf("FIFO evicted key %d, want 1", ev.Key)
	}
}

func TestLRCUEvictsLowestRefCount(t *testing.T) {
	c := New[int](3, 3, LRCU)
	c.Put(10, 0) // ref 1
	c.Put(20, 0) // ref 1
	c.Put(30, 0) // ref 1
	// Key 20 becomes hot (three duplicate writes).
	c.Touch(20, 0)
	c.Touch(20, 0)
	c.Touch(20, 0)
	// Key 30 mildly hot.
	c.Touch(30, 0)
	// Keys 10 has ref 1 and must be the victim even though it is not LRU.
	c.Get(10) // make 10 most-recently-used
	ev, evicted := c.Put(40, 0)
	if !evicted || ev.Key != 10 {
		t.Fatalf("LRCU evicted key %d (ref=%d), want key 10", ev.Key, ev.Ref)
	}
	if !c.Contains(20) || !c.Contains(30) {
		t.Fatal("LRCU evicted a hot entry")
	}
}

func TestLRCUTieBreaksByRecency(t *testing.T) {
	c := New[int](2, 2, LRCU)
	c.Put(1, 0)
	c.Put(2, 0)
	c.Get(1) // 2 is now least recently used, both ref 1
	ev, _ := c.Put(3, 0)
	if ev.Key != 2 {
		t.Fatalf("tie-break evicted %d, want 2", ev.Key)
	}
}

func TestTouchSaturatesAtRefMax(t *testing.T) {
	c := New[int](4, 4, LRCU)
	c.Put(1, 0)
	for i := 0; i < 300; i++ {
		c.Touch(1, 255)
	}
	if ref := c.Ref(1); ref != 255 {
		t.Fatalf("ref = %d, want saturation at 255", ref)
	}
	if c.Touch(99, 255) {
		t.Fatal("Touch on absent key returned true")
	}
}

func TestDecayAllFloorsAtZero(t *testing.T) {
	c := New[int](4, 4, LRCU)
	c.Put(1, 0)
	c.Put(2, 0)
	c.Touch(2, 0)
	c.Touch(2, 0) // ref(2) = 3
	c.DecayAll(2)
	if r := c.Ref(1); r != 0 {
		t.Fatalf("ref(1) after decay = %d, want 0", r)
	}
	if r := c.Ref(2); r != 1 {
		t.Fatalf("ref(2) after decay = %d, want 1", r)
	}
	c.DecayAll(5)
	if r := c.Ref(2); r != 0 {
		t.Fatalf("ref(2) after second decay = %d, want floor 0", r)
	}
}

func TestDeleteAndClear(t *testing.T) {
	c := New[int](8, 4, LRU)
	c.Put(1, 1)
	c.Put(2, 2)
	if !c.Delete(1) {
		t.Fatal("Delete(1) = false")
	}
	if c.Delete(1) {
		t.Fatal("double Delete(1) = true")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after delete", c.Len())
	}
	c.Get(2)
	before := c.Stats
	c.Clear()
	if c.Len() != 0 || c.Contains(2) {
		t.Fatal("Clear left entries behind")
	}
	// The statistics count over the cache's whole life: telemetry
	// publishes them, and its counters must not fall across a crash.
	if c.Stats != before {
		t.Fatalf("Clear changed the statistics: %+v, was %+v", c.Stats, before)
	}
}

func TestPeekHasNoSideEffects(t *testing.T) {
	c := New[int](4, 4, LRU)
	c.Put(1, 10)
	before := c.Stats
	if v, ok := c.Peek(1); !ok || v != 10 {
		t.Fatal("Peek missed present key")
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("Peek hit absent key")
	}
	if c.Stats != before {
		t.Fatal("Peek changed statistics")
	}
}

// TestPrefetchIsInert runs twin caches through one random schedule of
// probes, touches, inserts and deletes, prefetching every key of one twin
// first. The twins must end with the same statistics, recency clock,
// contents and replacement state (last also says which ways are live): a
// prefetch moves none.
func TestPrefetchIsInert(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, LRCU} {
		plain, pre := New[uint64](64, 4, pol), New[uint64](64, 4, pol)
		rng := xrand.New(5)
		for i := 0; i < 20_000; i++ {
			k := rng.Uint64n(200)
			pre.Prefetch(k)
			for _, c := range []*Cache[uint64]{plain, pre} {
				switch i % 5 {
				case 0, 1:
					c.GetRef(k)
				case 2:
					c.Touch(k, 8)
				case 3:
					c.PutWithRef(k, uint64(i), 1)
				default:
					c.Delete(k)
				}
			}
			if i%1000 == 999 {
				plain.DecayAll(1)
				pre.DecayAll(1)
			}
		}
		if plain.Stats != pre.Stats || plain.tick != pre.tick || plain.len != pre.len {
			t.Fatalf("%v: prefetch moved state: stats %+v vs %+v, tick %d vs %d",
				pol, plain.Stats, pre.Stats, plain.tick, pre.tick)
		}
		if !slices.Equal(plain.keys, pre.keys) || !slices.Equal(plain.vals, pre.vals) ||
			!slices.Equal(plain.last, pre.last) ||
			!slices.Equal(plain.born, pre.born) || !slices.Equal(plain.ref, pre.ref) {
			t.Fatalf("%v: prefetch moved the cache's contents or replacement state", pol)
		}
	}
}

// TestInsertStartsItsOwnRefCount evicts a key touched five times and
// checks that the entry taking its way starts at the count it was put
// with, under every policy: ESD's referH check reads GetRef under LRU too.
func TestInsertStartsItsOwnRefCount(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, LRCU} {
		c := New[int](1, 1, pol)
		c.Put(1, 0)
		for i := 0; i < 5; i++ {
			c.Touch(1, 0)
		}
		ev, evicted := c.Put(2, 0)
		if !evicted || ev.Key != 1 || ev.Ref != 6 {
			t.Fatalf("%v: evicted %+v (evicted=%v), want key 1 with ref 6", pol, ev, evicted)
		}
		if r := c.Ref(2); r != 1 {
			t.Fatalf("%v: Ref(2) = %d after Put, want 1", pol, r)
		}
		if _, r, _ := c.GetRef(2); r != 1 {
			t.Fatalf("%v: GetRef(2) ref = %d, want 1", pol, r)
		}
		c.PutWithRef(3, 0, 4)
		if r := c.Ref(3); r != 4 {
			t.Fatalf("%v: Ref(3) = %d after PutWithRef(.., 4), want 4", pol, r)
		}
	}
}

// TestOnlyFIFOKeepsInsertionTicks pins the per-way arrays: only FIFO
// reads born, so only a FIFO cache allocates it.
func TestOnlyFIFOKeepsInsertionTicks(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, LRCU} {
		c := New[int](64, 8, pol)
		if got, want := c.born != nil, pol == FIFO; got != want {
			t.Fatalf("%v: born allocated = %v, want %v", pol, got, want)
		}
		for k := uint64(0); k < 200; k++ {
			c.Put(k, int(k))
			if k%3 == 0 {
				c.Delete(k)
			}
		}
		c.Clear()
		if c.Len() != 0 {
			t.Fatalf("%v: Len = %d after Clear", pol, c.Len())
		}
	}
}

func TestStatsAndHitRate(t *testing.T) {
	c := New[int](4, 4, LRU)
	c.Put(1, 1)
	c.Get(1)
	c.Get(1)
	c.Get(2)
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 || c.Stats.Inserts != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if hr := c.Stats.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate = %v, want 2/3", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate != 0")
	}
}

func TestSetAssociativityConfinesEvictions(t *testing.T) {
	// 2 sets x 2 ways. Keys mapping to different sets must not evict each
	// other even when the cache as a whole is full.
	c := New[int](4, 2, LRU)
	// Find four keys: two per set.
	var setA, setB []uint64
	for k := uint64(0); len(setA) < 2 || len(setB) < 2; k++ {
		if mix(k)%2 == 0 {
			if len(setA) < 2 {
				setA = append(setA, k)
			}
		} else if len(setB) < 2 {
			setB = append(setB, k)
		}
	}
	c.Put(setA[0], 1)
	c.Put(setA[1], 2)
	c.Put(setB[0], 3)
	c.Put(setB[1], 4)
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// Inserting another set-A key evicts from set A only.
	var extra uint64
	for k := uint64(100); ; k++ {
		if mix(k)%2 == 0 {
			extra = k
			break
		}
	}
	ev, evicted := c.Put(extra, 5)
	if !evicted {
		t.Fatal("full set did not evict")
	}
	if ev.Key != setA[0] && ev.Key != setA[1] {
		t.Fatalf("evicted key %d from wrong set", ev.Key)
	}
	if !c.Contains(setB[0]) || !c.Contains(setB[1]) {
		t.Fatal("eviction crossed set boundary")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	check := func(seed uint64, capRaw, waysRaw uint8) bool {
		capacity := int(capRaw%64) + 1
		ways := int(waysRaw%8) + 1
		c := New[uint64](capacity, ways, LRU)
		r := xrand.New(seed)
		for i := 0; i < 500; i++ {
			k := r.Uint64n(128)
			c.Put(k, k)
			if c.Len() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, quicktest.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestGetAfterPutAlwaysHitsUntilEvicted(t *testing.T) {
	check := func(seed uint64) bool {
		c := New[uint64](32, 4, LRCU)
		r := xrand.New(seed)
		live := map[uint64]uint64{}
		for i := 0; i < 1000; i++ {
			k := r.Uint64n(256)
			v := r.Uint64()
			ev, evicted := c.Put(k, v)
			live[k] = v
			if evicted {
				delete(live, ev.Key)
			}
			// Every key believed live must be retrievable with its value.
			probe := r.Uint64n(256)
			if want, ok := live[probe]; ok {
				got, hit := c.Peek(probe)
				if !hit || got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, quicktest.Config(t, 30)); err != nil {
		t.Fatal(err)
	}
}

func TestRangeVisitsAllEntries(t *testing.T) {
	c := New[int](16, 4, LRU)
	for k := uint64(0); k < 10; k++ {
		c.Put(k, int(k*10))
	}
	seen := map[uint64]int{}
	c.Range(func(k uint64, v int, ref int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != c.Len() {
		t.Fatalf("Range visited %d entries, Len = %d", len(seen), c.Len())
	}
	// Early termination.
	visits := 0
	c.Range(func(uint64, int, int) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("Range ignored early stop: %d visits", visits)
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0, 1, LRU)
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || LRCU.String() != "lrcu" {
		t.Fatal("unexpected policy names")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy string")
	}
}

func BenchmarkCachePutGet(b *testing.B) {
	b.ReportAllocs()
	c := New[uint64](4096, 8, LRU)
	r := xrand.New(1)
	keys := make([]uint64, 8192)
	for i := range keys {
		keys[i] = r.Uint64n(16384)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if _, ok := c.Get(k); !ok {
			c.Put(k, k)
		}
	}
}

func BenchmarkCacheLRCUVictimScan(b *testing.B) {
	b.ReportAllocs()
	c := New[uint64](4096, 16, LRCU)
	r := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(r.Uint64(), 0)
	}
}
