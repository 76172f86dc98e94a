package circulant

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// MulVec/TransMulVec run the engine at batch 1 on scratch borrowed from the
// package pool; these tests pin that form against the dense expansion and
// against the caller-owned-workspace entry points.

func genericMulVec(m *BlockCirculant, x []float64) []float64 {
	return tensor.MatVec(m.Dense(), x)
}

func genericTransMulVec(m *BlockCirculant, x []float64) []float64 {
	return tensor.MatVec(tensor.Transpose2D(m.Dense()), x)
}

func TestFastPathsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ rows, cols, block int }{
		{8, 8, 4}, {64, 32, 16}, {100, 60, 32}, {256, 128, 64}, {3, 5, 8},
	} {
		m := MustNewBlockCirculant(tc.rows, tc.cols, tc.block).InitRandom(rng)
		x := randVec(rng, tc.cols)
		if d := maxAbsDiff(m.MulVec(x), genericMulVec(m, x)); d > 1e-8 {
			t.Errorf("%+v: fast MulVec differs by %g", tc, d)
		}
		y := randVec(rng, tc.rows)
		if d := maxAbsDiff(m.TransMulVec(y), genericTransMulVec(m, y)); d > 1e-8 {
			t.Errorf("%+v: fast TransMulVec differs by %g", tc, d)
		}
	}
}

func TestFastPathConcurrentUse(t *testing.T) {
	// Scratch comes from one package-level pool: concurrent products on one
	// shared matrix (and, interleaved, on a second of another shape, so
	// pooled workspaces change hands between sizes) must not interfere.
	// Run under -race.
	rng := rand.New(rand.NewSource(2))
	m := MustNewBlockCirculant(128, 128, 32).InitRandom(rng)
	other := MustNewBlockCirculant(48, 200, 16).InitRandom(rng)
	x := randVec(rng, 128)
	y := randVec(rng, 48)
	want := m.TransMulVec(x)
	wantOther := other.TransMulVec(y)
	var wg sync.WaitGroup
	bad := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !sameBits(m.TransMulVec(x), want) {
					bad <- "shared matrix"
					return
				}
				if !sameBits(other.TransMulVec(y), wantOther) {
					bad <- "second matrix"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(bad)
	for which := range bad {
		t.Errorf("concurrent product on the %s diverged", which)
	}
}

func TestWorkspaceReuseAcrossCalls(t *testing.T) {
	// Repeated calls must keep producing identical results (stale-buffer
	// regression guard).
	rng := rand.New(rand.NewSource(3))
	m := MustNewBlockCirculant(48, 80, 16).InitRandom(rng)
	x1 := randVec(rng, 80)
	x2 := randVec(rng, 80)
	first := m.MulVec(x1)
	m.MulVec(x2) // dirty the pooled buffers with different data
	again := m.MulVec(x1)
	if d := maxAbsDiff(first, again); d != 0 {
		t.Errorf("pooled buffers leaked state: %g", d)
	}
}

func TestIntoMatchesAllocating(t *testing.T) {
	// The caller-owned-workspace entry points must agree exactly with the
	// allocating forms, across pow-2 and non-pow-2 blocks, with one shared
	// BatchWorkspace threaded through differently-shaped matrices.
	rng := rand.New(rand.NewSource(5))
	ws := NewBatchWorkspace()
	for _, tc := range []struct{ rows, cols, block int }{
		{8, 8, 4}, {64, 32, 16}, {100, 60, 32}, {256, 128, 64}, {3, 5, 8}, {48, 80, 12},
	} {
		m := MustNewBlockCirculant(tc.rows, tc.cols, tc.block).InitRandom(rng)
		x := randVec(rng, tc.cols)
		dst := make([]float64, tc.rows)
		if !sameBits(m.MulBatchInto(dst, x, 1, ws), m.MulVec(x)) {
			t.Errorf("%+v: MulBatchInto at batch 1 differs from MulVec", tc)
		}
		y := randVec(rng, tc.rows)
		if !sameBits(m.TransMulBatchInto(nil, y, 1, ws), m.TransMulVec(y)) {
			t.Errorf("%+v: TransMulBatchInto at batch 1 differs from TransMulVec", tc)
		}
		// nil workspace borrows from the pool and must agree too.
		if !sameBits(m.MulBatchInto(nil, x, 1, nil), m.MulVec(x)) {
			t.Errorf("%+v: MulBatchInto(nil ws) differs from MulVec", tc)
		}
	}
}

func TestIntoRejectsBadDst(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := MustNewBlockCirculant(16, 8, 4).InitRandom(rng)
	defer func() {
		if recover() == nil {
			t.Error("short dst accepted")
		}
	}()
	m.MulBatchInto(make([]float64, 3), randVec(rng, 8), 1, NewBatchWorkspace())
}
