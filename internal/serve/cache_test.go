package serve

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestCacheSharding covers the shard layout: capacities partition across
// shards (summing to the configured total), tiny caches collapse to fewer
// shards, inputs route deterministically, and aggregated counters
// reconcile with traffic.
func TestCacheSharding(t *testing.T) {
	for _, tc := range []struct{ capacity, wantShards int }{
		{1, 1}, {2, 2}, {3, 2}, {15, 8}, {16, 16}, {1024, 16},
	} {
		c := newResultCache(tc.capacity)
		if len(c.shards) != tc.wantShards {
			t.Errorf("capacity %d: %d shards, want %d", tc.capacity, len(c.shards), tc.wantShards)
		}
		total := 0
		for i := range c.shards {
			total += c.shards[i].cap
		}
		if total != tc.capacity {
			t.Errorf("capacity %d: shard capacities sum to %d", tc.capacity, total)
		}
	}

	// Fill a sharded cache far beyond capacity: the entry count must never
	// exceed the configured total, and every input must be found in the
	// shard it hashes to (get after add).
	const capacity = 32
	c := newResultCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		in := []float64{float64(i)}
		h := c.hashInput(in)
		sh := c.shard(h)
		sh.add(h, in, i, []float64{float64(-i)})
		res, ok := sh.get(h, in, nil)
		if !ok || res.Class != i || len(res.Scores) != 1 || res.Scores[0] != float64(-i) || !res.Cached {
			t.Fatalf("input %d: just-added entry read back as %+v (ok=%v)", i, res, ok)
		}
	}
	hits, misses, entries := c.counters()
	if entries > capacity {
		t.Errorf("cache holds %d entries, capacity %d", entries, capacity)
	}
	if hits != 10*capacity || misses != 0 {
		t.Errorf("counters hits=%d misses=%d, want %d/0", hits, misses, 10*capacity)
	}
}

// TestCacheShardedConcurrent hammers one cache from many goroutines with
// overlapping inputs (hits, misses, evictions in every shard) and checks
// the aggregate counters reconcile and no hit ever carries another input's
// scores; run under -race in CI, this is the regression test for the
// shard conversion and for entry recycling.
func TestCacheShardedConcurrent(t *testing.T) {
	const goroutines, iters, distinct = 8, 500, 64
	c := newResultCache(distinct / 2) // force evictions
	inputs := make([][]float64, distinct)
	for i := range inputs {
		inputs[i] = []float64{float64(i), float64(2 * i)}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var scores []float64
			for i := 0; i < iters; i++ {
				k := rng.Intn(distinct)
				h := c.hashInput(inputs[k])
				sh := c.shard(h)
				res, ok := sh.get(h, inputs[k], scores)
				if !ok {
					sh.miss()
					sh.add(h, inputs[k], k, []float64{float64(k)})
					continue
				}
				scores = res.Scores
				if res.Class != k || len(scores) != 1 || scores[0] != float64(k) {
					t.Errorf("hit for input %d returned class %d scores %v", k, res.Class, scores)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, entries := c.counters()
	if hits+misses != goroutines*iters {
		t.Errorf("hits %d + misses %d != %d lookups", hits, misses, goroutines*iters)
	}
	if entries > distinct/2 {
		t.Errorf("cache holds %d entries, capacity %d", entries, distinct/2)
	}
}

// TestCacheHashCollisionIsAMiss injects one hash for two different
// inputs: the second input must miss — never read the first one's scores
// — and storing it replaces the entry, after which the first input
// misses in turn.
func TestCacheHashCollisionIsAMiss(t *testing.T) {
	c := newResultCache(4)
	const h = 42
	sh := c.shard(h)
	a, b := []float64{1, 2, 3}, []float64{1, 2, 4}
	sh.add(h, a, 7, []float64{0.7})
	if res, ok := sh.get(h, b, nil); ok {
		t.Fatalf("input b hit input a's entry under a shared hash: %+v", res)
	}
	if res, ok := sh.get(h, a[:2], nil); ok {
		t.Fatalf("a prefix of input a hit its entry: %+v", res)
	}
	sh.add(h, b, 8, []float64{0.8})
	if res, ok := sh.get(h, b, nil); !ok || res.Class != 8 || res.Scores[0] != 0.8 {
		t.Fatalf("input b after its own insert: %+v ok=%v", res, ok)
	}
	if res, ok := sh.get(h, a, nil); ok {
		t.Fatalf("input a still served after the colliding insert replaced it: %+v", res)
	}
	if _, _, n := sh.counts(); n != 1 {
		t.Errorf("%d entries under one hash, want 1", n)
	}
}

// TestCacheKeysAreBitPatterns pins exact-input keying: +0 and −0 compare
// equal as floats and two NaNs compare unequal, but the cache keys on the
// bits, so each pattern is its own entry.
func TestCacheKeysAreBitPatterns(t *testing.T) {
	c := newResultCache(4 * cacheShards) // every shard holds all four inputs
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	inputs := [][]float64{{0}, {math.Copysign(0, -1)}, {nan1}, {nan2}}
	for i, in := range inputs {
		h := c.hashInput(in)
		c.shard(h).add(h, in, i, []float64{float64(i)})
	}
	for i, in := range inputs {
		h := c.hashInput(in)
		res, ok := c.shard(h).get(h, in, nil)
		if !ok || res.Class != i {
			t.Errorf("input %d (%x): got %+v ok=%v, want its own class %d",
				i, math.Float64bits(in[0]), res, ok, i)
		}
	}
	if _, _, n := c.counters(); n != len(inputs) {
		t.Errorf("%d entries for %d distinct bit patterns", n, len(inputs))
	}
	// Even under one injected hash the sign bit keeps them apart.
	const h = 9
	sh := c.shard(h)
	sh.add(h, inputs[0], 0, nil)
	if _, ok := sh.get(h, inputs[1], nil); ok {
		t.Error("−0 hit +0's entry")
	}
}

// TestCacheEvictsLeastRecentlyUsed pins the order of the intrusive list
// in a single shard: a hit or a refresh makes an entry the most recent,
// and a full shard evicts — and recycles — the least recent one.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newResultCache(1) // one shard
	sh := &c.shards[0]
	sh.cap = 3
	in := func(i int) []float64 { return []float64{float64(i)} }
	has := func(i int) bool { _, ok := sh.get(uint64(i), in(i), nil); return ok }
	for i := 1; i <= 3; i++ {
		sh.add(uint64(i), in(i), i, in(i))
	}
	if !has(1) { // 1 becomes most recent; order is now 1, 3, 2
		t.Fatal("entry 1 missing from a shard at capacity")
	}
	sh.add(2, in(2), 2, in(2)) // refresh: 2, 1, 3
	victim := sh.lru.prev
	sh.add(4, in(4), 4, in(4)) // evicts 3
	if sh.lru.next != victim {
		t.Error("the evicted entry was not recycled for the insert that evicted it")
	}
	sh.add(5, in(5), 5, in(5)) // evicts 1
	for i, want := range []bool{1: false, 2: true, 3: false, 4: true, 5: true} {
		if i > 0 && has(i) != want {
			t.Errorf("entry %d present=%v, want %v", i, !want, want)
		}
	}
	if _, _, n := sh.counts(); n != 3 {
		t.Errorf("%d entries, capacity 3", n)
	}
}
