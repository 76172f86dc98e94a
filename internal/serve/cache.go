package serve

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// resultCache is a fixed-capacity LRU of inference results keyed by the
// exact input vector. Embedded-vision traffic is heavily repetitive (the
// same preprocessed frame, the same probe image), and a cache hit skips
// the queue, the batch and the FFTs entirely.
//
// A lookup costs one pass over the input: hashInput mixes the input's
// math.Float64bits a word at a time into 64 bits, the hash picks the
// shard and keys the shard's map, and the entry found there keeps the
// exact input it was stored under. A hit is accepted only when that
// input equals the query bit for bit, so a hit can never return the
// result of a different input — two inputs sharing a hash are a miss,
// and the newcomer replaces the entry — and +0/−0 or two NaN payloads
// stay distinct keys. The hash is seeded per cache (from the clock at
// construction), so no fixed set of inputs shares a shard or a hash in
// every process. Every Server owns its cache: two registered models
// cannot see each other's entries.
//
// The cache is sharded cacheShards ways by the hash: under concurrent
// /infer load every lookup and insert takes a lock, and a single mutex in
// front of one LRU list serialises the whole request fan-in. Each shard
// owns an independent mutex, LRU list and hit/miss counters, so LRU
// ordering and eviction stay exact per shard and the total capacity is
// partitioned across shards.
//
// Entries are an intrusive list whose evicted entry — its input copy and
// score row — is recycled by the insert that evicted it: once a shard is
// full, a hit, a miss and an insert allocate nothing.
type resultCache struct {
	shards []cacheShard
	mask   uint64 // len(shards)-1; shard counts are powers of two
	seed   uint64
}

// cacheShards is the shard-count ceiling: comfortably above the core
// counts the serving path runs on, so the probability of two in-flight
// lookups colliding on one shard lock stays low, while keeping the fixed
// per-cache footprint (mutexes, lists, maps) trivial. Power of two so the
// hash reduces with a mask. Caches smaller than the ceiling use the
// largest power-of-two shard count not exceeding their capacity, so the
// partitioned capacities still sum to the configured total.
const cacheShards = 16

// cacheShard is one lock's worth of LRU cache. The hit/miss counters live
// here, under the same mutex as the entries, so each shard's three figures
// are mutually consistent; counters() aggregates shard by shard without
// ever holding two shard locks at once.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	items map[uint64]*cacheEntry // input hash → entry
	lru   cacheEntry             // list sentinel: lru.next is the most recently used entry, lru.prev the least

	hits, misses uint64
}

// cacheEntry is one cached result and a link of its shard's LRU list.
type cacheEntry struct {
	prev, next *cacheEntry
	hash       uint64
	input      []float64 // the exact input the result belongs to
	class      int
	scores     []float64
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	nshards := 1
	for nshards*2 <= cacheShards && nshards*2 <= capacity {
		nshards *= 2
	}
	c := &resultCache{
		shards: make([]cacheShard, nshards),
		mask:   uint64(nshards - 1),
		seed:   uint64(time.Now().UnixNano()),
	}
	per := capacity / nshards
	extra := capacity % nshards
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		if i < extra {
			s.cap++
		}
		s.items = make(map[uint64]*cacheEntry, s.cap)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
	}
	return c
}

// hashInput mixes the input's bit patterns into the 64-bit hash that
// picks its shard and keys the shard's map: two words per 128-bit
// multiply, folded, with the length mixed in last.
//
//repro:noalloc
func (c *resultCache) hashInput(input []float64) uint64 {
	const k0, k1 = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f
	h := c.seed
	i := 0
	for ; i+1 < len(input); i += 2 {
		hi, lo := bits.Mul64(math.Float64bits(input[i])^h^k0, math.Float64bits(input[i+1])^k1)
		h ^= hi ^ lo
	}
	if i < len(input) {
		hi, lo := bits.Mul64(math.Float64bits(input[i])^h^k0, k1)
		h ^= hi ^ lo
	}
	hi, lo := bits.Mul64(h^k1, uint64(len(input))^k0)
	return hi ^ lo
}

// shard maps an input hash to its home shard.
//
//repro:noalloc
func (c *resultCache) shard(hash uint64) *cacheShard {
	return &c.shards[hash&c.mask]
}

// sameBits reports whether a and b are the same vector bit for bit (so
// +0 ≠ −0 and a NaN equals only its own payload).
//
//repro:noalloc
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// toFront makes e the shard's most recently used entry; e is either new
// (unlinked, prev == nil) or already on the list.
//
//repro:noalloc
func (s *cacheShard) toFront(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// The lookup/record operations live on cacheShard: the serving path
// hashes an input and resolves its shard once per request, and drives
// every subsequent operation — get, miss/unmiss, the worker's add —
// against that pointer and hash.

// get looks input up under its hash. On a hit the entry becomes the most
// recently used, the hit is counted, and the scores are copied into the
// caller's buffer (grown as needed) before the shard lock is released:
// the entry's score row is recycled by a later eviction, so it must not
// be read outside the lock.
//
//repro:noalloc
func (s *cacheShard) get(hash uint64, input, scores []float64) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.items[hash]
	if e == nil || !sameBits(e.input, input) {
		return Result{}, false
	}
	s.hits++
	s.toFront(e)
	return Result{Class: e.class, Scores: append(scores[:0], e.scores...), Cached: true}, true
}

// miss counts one lookup miss whose request was admitted to the queue;
// unmiss reverses it for a submission cancelled before admission. Callers
// must use the input's home shard so the counters reconcile with its own
// traffic.
//
//repro:noalloc
func (s *cacheShard) miss() {
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
}

//repro:noalloc
func (s *cacheShard) unmiss() {
	s.mu.Lock()
	s.misses--
	s.mu.Unlock()
}

// add stores (input → class, scores) under hash, copying both vectors
// into the entry's own storage. An entry already under the hash is
// overwritten — a refresh of the same input, or a different input that
// collided with it; otherwise a full shard recycles its least recently
// used entry, buffers included.
//
//repro:noalloc
func (s *cacheShard) add(hash uint64, input []float64, class int, scores []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.items[hash]
	if e == nil {
		if len(s.items) < s.cap {
			e = &cacheEntry{}
		} else {
			e = s.lru.prev
			delete(s.items, e.hash)
		}
		// Once the shard is full this re-keys a recycled entry into the slot
		// its eviction just freed; the map only grows while the shard fills.
		s.items[hash] = e
	}
	s.toFront(e)
	e.hash = hash
	e.input = append(e.input[:0], input...)
	e.class = class
	e.scores = append(e.scores[:0], scores...)
}

// counts returns this shard's hit/miss counters and entry count under its
// lock — the per-shard read behind the shard-labelled /metrics series.
func (s *cacheShard) counts() (hits, misses uint64, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, len(s.items)
}

// counters returns the aggregated hit/miss totals and entry count. Each
// shard is read under its own lock — never all locks at once, so a stats
// poll cannot stall the whole cache — which makes the aggregate a
// per-shard-consistent sum: concurrent traffic that lands in a shard
// after it was read is simply not in this snapshot (exactly as if the
// snapshot had been taken earlier), and the monotonic counters never
// double-count.
func (c *resultCache) counters() (hits, misses uint64, entries int) {
	for i := range c.shards {
		h, m, n := c.shards[i].counts()
		hits += h
		misses += m
		entries += n
	}
	return hits, misses, entries
}
