package circulant

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sameBits reports whether two float64 slices are equal bit for bit (which,
// unlike ==, also tells +0 from −0 and compares NaNs).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBatchMatchesPerVector pins batch invariance: over matrix shapes
// (square, tall, wide, padded tails, tiny and non power-of-two blocks) and
// batch sizes, row v of MulBatchInto/TransMulBatchInto equals the batch-of-1
// product of vector v bit for bit — a vector's result does not depend on
// what it was batched with or on its column in the batch (33 exercises the
// padded pitch, odd sizes the unpaired tail of the accumulation loop, and
// 512×512 at batch 16/33 crosses parallelThreshold).
func TestBatchMatchesPerVector(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	shapes := []struct{ rows, cols, block int }{
		{64, 64, 16},   // square, exact tiling
		{128, 64, 32},  // tall
		{64, 128, 32},  // wide
		{100, 60, 16},  // padded tail blocks on both sides
		{512, 512, 64}, // the benchmark shape
		{16, 16, 2},    // smallest real-plan block
		{12, 20, 4},    // padding with tiny blocks
		{30, 42, 6},    // non power-of-two block: generic body
		{9, 7, 1},      // block 1: generic body
	}
	for _, sh := range shapes {
		m := MustNewBlockCirculant(sh.rows, sh.cols, sh.block).InitRandom(rng)
		for _, batch := range []int{1, 2, 5, 16, 33} {
			name := fmt.Sprintf("%dx%d/b=%d/batch=%d", sh.rows, sh.cols, sh.block, batch)
			t.Run(name, func(t *testing.T) {
				ws := NewBatchWorkspace()

				xT := randVec(rng, batch*sh.rows)
				gotT := m.TransMulBatchInto(nil, xT, batch, ws)
				for v := 0; v < batch; v++ {
					want := m.TransMulBatchInto(nil, xT[v*sh.rows:(v+1)*sh.rows], 1, ws)
					if !sameBits(gotT[v*sh.cols:(v+1)*sh.cols], want) {
						t.Fatalf("TransMul vec %d: row of the batch differs in bits from its batch-of-1 product", v)
					}
				}

				xM := randVec(rng, batch*sh.cols)
				gotM := m.MulBatchInto(nil, xM, batch, ws)
				for v := 0; v < batch; v++ {
					want := m.MulBatchInto(nil, xM[v*sh.cols:(v+1)*sh.cols], 1, ws)
					if !sameBits(gotM[v*sh.rows:(v+1)*sh.rows], want) {
						t.Fatalf("Mul vec %d: row of the batch differs in bits from its batch-of-1 product", v)
					}
				}
			})
		}
	}
}

// TestBatchAgainstDense is the engine's numerical oracle: both products
// against the O(n²) dense expansion, which shares no code with any FFT
// path. Batch 1 (rowPitch(1), and the accumulation's unpaired tail loop
// alone), blocks 2 and 4 (the transforms' n = 1 and n = 2 heads) and the
// ragged Arch-2 shape are here because nothing else reaches them.
func TestBatchAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	shapes := []struct{ rows, cols, block int }{
		{48, 80, 16},
		{16, 16, 2},
		{12, 20, 4},
		{10, 7, 4},    // ragged on both sides, tiny block
		{121, 64, 32}, // Arch-2's first layer: a 25-long tail block
		{64, 121, 32},
		{100, 60, 8},
		{130, 70, 64},
	}
	for _, sh := range shapes {
		m := MustNewBlockCirculant(sh.rows, sh.cols, sh.block).InitRandom(rng)
		d := m.Dense()
		for _, batch := range []int{1, 2, 3, 7} {
			xT := randVec(rng, batch*sh.rows)
			gotT := m.TransMulBatchInto(nil, xT, batch, nil) // nil workspace allowed
			xM := randVec(rng, batch*sh.cols)
			gotM := m.MulBatchInto(nil, xM, batch, nil)
			for v := 0; v < batch; v++ {
				for j := 0; j < sh.cols; j++ {
					var want float64
					for i := 0; i < sh.rows; i++ {
						want += d.At(i, j) * xT[v*sh.rows+i]
					}
					if dd := math.Abs(gotT[v*sh.cols+j] - want); dd > 1e-10 {
						t.Fatalf("%+v batch %d TransMul vec %d col %d: %g, dense %g", sh, batch, v, j, gotT[v*sh.cols+j], want)
					}
				}
				for i := 0; i < sh.rows; i++ {
					var want float64
					for j := 0; j < sh.cols; j++ {
						want += d.At(i, j) * xM[v*sh.cols+j]
					}
					if dd := math.Abs(gotM[v*sh.rows+i] - want); dd > 1e-10 {
						t.Fatalf("%+v batch %d Mul vec %d row %d: %g, dense %g", sh, batch, v, i, gotM[v*sh.rows+i], want)
					}
				}
			}
		}
	}
}

// TestBatchWorkspaceReuse checks a workspace reused across products of
// different shapes and batch sizes yields the same results as fresh
// scratch, and that reuse stops allocating once warm.
func TestBatchWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := MustNewBlockCirculant(128, 96, 32).InitRandom(rng)
	b := MustNewBlockCirculant(64, 200, 16).InitRandom(rng)
	ws := NewBatchWorkspace()
	for trial := 0; trial < 3; trial++ {
		for _, tc := range []struct {
			m     *BlockCirculant
			batch int
		}{{a, 8}, {b, 3}, {a, 1}, {b, 17}} {
			x := randVec(rng, tc.batch*tc.m.Rows())
			got := tc.m.TransMulBatchInto(nil, x, tc.batch, ws)
			want := tc.m.TransMulBatchInto(nil, x, tc.batch, NewBatchWorkspace())
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: reused workspace diverged at %d: %g != %g", trial, i, got[i], want[i])
				}
			}
		}
	}

	const batch = 16
	x := randVec(rng, batch*a.Rows())
	dst := make([]float64, batch*a.Cols())
	a.TransMulBatchInto(dst, x, batch, ws) // warm for this shape
	allocs := testing.AllocsPerRun(20, func() { a.TransMulBatchInto(dst, x, batch, ws) })
	if allocs > 0 {
		t.Errorf("warm batched product allocates %.0f/op; want 0", allocs)
	}
}

// TestTransMulBatchFusedMatchesSeparate requires the fused
// inverse-transform + bias + ReLU epilogue to compute exactly what the
// unfused product followed by a separate bias/ReLU sweep computes, across
// the engine at batch 1 and above and the generic body (non power-of-two
// block), with and without ReLU.
func TestTransMulBatchFusedMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	shapes := []struct{ rows, cols, block int }{
		{128, 96, 32},  // the engine
		{100, 60, 16},  // padded tails (odd tail handling in storeColumn)
		{30, 42, 6},    // non power-of-two block: generic body
		{512, 512, 64}, // the benchmark shape
	}
	for _, sh := range shapes {
		m := MustNewBlockCirculant(sh.rows, sh.cols, sh.block).InitRandom(rng)
		bias := randVec(rng, sh.cols)
		for _, batch := range []int{1, 7, 16} {
			for _, relu := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/b=%d/batch=%d/relu=%v", sh.rows, sh.cols, sh.block, batch, relu)
				t.Run(name, func(t *testing.T) {
					x := randVec(rng, batch*sh.rows)
					got := m.TransMulBatchFusedInto(nil, x, batch, nil, bias, relu)
					want := m.TransMulBatchInto(nil, x, batch, nil)
					for v := 0; v < batch; v++ {
						for j := 0; j < sh.cols; j++ {
							w := want[v*sh.cols+j] + bias[j]
							if relu {
								w = max(w, 0)
							}
							if got[v*sh.cols+j] != w {
								t.Fatalf("vec %d col %d: fused %g, separate %g", v, j, got[v*sh.cols+j], w)
							}
						}
					}
				})
			}
		}
	}
}

func TestTransMulBatchFusedValidatesBias(t *testing.T) {
	m := MustNewBlockCirculant(8, 8, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for short bias")
		}
	}()
	m.TransMulBatchFusedInto(nil, make([]float64, 16), 2, nil, make([]float64, 7), true)
}

// TestBatchMulZeroAlloc is the spectral-product allocation gate: once a
// workspace is warm, the full split spectral pass (forward, fused
// transpose, plain transpose) must not allocate — at batch 1, the paper's
// one-image-at-a-time deployment, as at batch 4. The shape stays below
// parallelThreshold so the deterministic serial path runs on every host —
// the parallel path's pfor closures heap-allocate by design.
func TestBatchMulZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	const rows, cols, block = 256, 192, 32
	m := MustNewBlockCirculant(rows, cols, block).InitRandom(rng)
	bias := randVec(rng, cols)
	ws := NewBatchWorkspace()
	for _, batch := range []int{1, 4} {
		xM := randVec(rng, batch*cols)
		xT := randVec(rng, batch*rows)
		dstM := make([]float64, batch*rows)
		dstT := make([]float64, batch*cols)
		pass := func() {
			m.MulBatchInto(dstM, xM, batch, ws)
			m.TransMulBatchInto(dstT, xT, batch, ws)
			m.TransMulBatchFusedInto(dstT, xT, batch, ws, bias, true)
		}
		pass()
		if allocs := testing.AllocsPerRun(20, pass); allocs > 0 {
			t.Errorf("batch %d: warm spectral pass allocates %.0f/op; want 0", batch, allocs)
		}
	}
}

// TestBatchConcurrentMatrices runs batched products on the same matrix from
// several goroutines (each with its own workspace), exercising the bounded
// worker pool under -race.
func TestBatchConcurrentMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const rows, cols, block, batch = 256, 192, 64, 16
	m := MustNewBlockCirculant(rows, cols, block).InitRandom(rng)
	x := randVec(rng, batch*rows)
	want := m.TransMulBatchInto(nil, x, batch, nil)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewBatchWorkspace()
			for it := 0; it < 10; it++ {
				got := m.TransMulBatchInto(nil, x, batch, ws)
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("iteration %d elem %d: %g != %g", it, i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchInputValidation pins the panic contract for malformed calls.
func TestBatchInputValidation(t *testing.T) {
	m := MustNewBlockCirculant(8, 8, 4)
	for name, fn := range map[string]func(){
		"zero batch":      func() { m.TransMulBatchInto(nil, nil, 0, nil) },
		"short input":     func() { m.TransMulBatchInto(nil, make([]float64, 15), 2, nil) },
		"wrong dst":       func() { m.TransMulBatchInto(make([]float64, 9), make([]float64, 16), 2, nil) },
		"mul short input": func() { m.MulBatchInto(nil, make([]float64, 7), 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
