package main

import (
	"math/rand"
)

// Everything the generator decides — which inputs exist, which one each
// op draws, when an open-loop request is due, what a session does — comes
// from -seed through the functions in this file, so the same seed replays
// the same workload and the tests can pin that.

// modelSeed fixes the network's weights: the model is the same for every
// -seed, only the traffic changes.
const modelSeed = 20180319

const (
	arch1Features = 256
	edgePool      = 1024  // images cycled by the on-device workloads
	servingPool   = 16384 // ≫ the default -cache 1024, so the LRU is bypassed
	appPool       = 4096  // inputs embedded into the vector collection
)

// subSeed derives an independent stream for one purpose (and one
// generator goroutine) from the run seed.
func subSeed(seed int64, purpose, lane int) int64 {
	return seed*1_000_003 + int64(purpose)*7919 + int64(lane)
}

const (
	purposePool = iota + 1
	purposeDraw
	purposeArrivals
	purposeSession
	purposeHot
)

// newPool makes n image-like inputs (features uniform in [0,1), the range
// of the paper's normalised MNIST pixels) in one backing array.
func newPool(seed int64, n, features int) [][]float64 {
	rng := rand.New(rand.NewSource(subSeed(seed, purposePool, 0)))
	flat := make([]float64, n*features)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	pool := make([][]float64, n)
	for i := range pool {
		pool[i] = flat[i*features : (i+1)*features : (i+1)*features]
	}
	return pool
}

// cycleOrder is the on-device draw order: a seeded permutation of the
// pool, repeated.
func cycleOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(subSeed(seed, purposeDraw, 0))).Perm(n)
}

// uniformDraws returns lane's input-index stream: uniform over the pool,
// so with a pool 16× the result cache almost every request is a miss.
func uniformDraws(seed int64, lane, n int) func() int {
	rng := rand.New(rand.NewSource(subSeed(seed, purposeDraw, lane)))
	return func() int { return rng.Intn(n) }
}

// arrivalGaps returns lane's open-loop inter-arrival stream in seconds:
// exponential gaps, i.e. Poisson arrivals at ratePerS.
func arrivalGaps(seed int64, lane int, ratePerS float64) func() float64 {
	rng := rand.New(rand.NewSource(subSeed(seed, purposeArrivals, lane)))
	return func() float64 { return rng.ExpFloat64() / ratePerS }
}

// zipfDraws returns lane's skewed input-index stream: rank r is drawn
// with probability ∝ 1/(1+r)^1.1 and mapped through a seeded permutation,
// so which inputs are hot changes with the seed but the skew does not.
func zipfDraws(seed int64, lane, n int) func() int {
	hot := rand.New(rand.NewSource(subSeed(seed, purposeHot, 0))).Perm(n)
	rng := rand.New(rand.NewSource(subSeed(seed, purposeDraw, lane)))
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	return func() int { return hot[z.Uint64()] }
}

const zipfS = 1.1

// session is one http_app_mix operation: embed one input, search with the
// returned vector, infer twice, and on every writeEvery-th session
// rewrite upsertBatch stored vectors with their own values.
type session struct {
	embed   int    // pool index embedded and searched for
	infer   [2]int // pool indices of the two /infer posts
	write   bool
	writeAt int // first of upsertBatch consecutive ids rewritten
}

const (
	writeEvery  = 10
	upsertBatch = 8
)

// sessionPlan returns lane's session stream.
func sessionPlan(seed int64, lane, n int) func() session {
	zipf := zipfDraws(seed, lane, n)
	rng := rand.New(rand.NewSource(subSeed(seed, purposeSession, lane)))
	count := 0
	return func() session {
		count++
		s := session{embed: rng.Intn(n), infer: [2]int{zipf(), zipf()}}
		if count%writeEvery == 0 {
			s.write = true
			s.writeAt = rng.Intn(n - upsertBatch + 1)
		}
		return s
	}
}
