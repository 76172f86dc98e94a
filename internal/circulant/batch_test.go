package circulant

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// (square, tall, wide, padded tails, tiny blocks, and non power-of-two
// blocks run by pad-and-fold) and
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
		{30, 42, 6},    // non power-of-two block: padded to 16 and folded
		{9, 7, 1},      // block 1: padded to 2 and folded
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
// ragged Arch-2 shape are here because nothing else reaches them; blocks 1,
// 3, 6 and 12 run by pad-and-fold, which has no other numerical oracle.
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
		{9, 7, 1},
		{25, 20, 3}, // ragged on both sides, odd block
		{30, 42, 6},
		{60, 50, 12},
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

// TestOutputColumnsAnyPartition pins the output stage's contract: every
// (vector, output block) column is computed independently, so however the
// column range [0, batch·outBlks) is cut — one sweep at GOMAXPROCS 1, the
// parallel arm's ranges at GOMAXPROCS 3, or any two-way split made by hand —
// every output has the same bits, and a sweep over a range writes nothing
// outside it. The shapes cover a wide layer whose batch-1 product fans out
// (8192×320), the benchmark shape, ragged tails with odd block counts, and
// the plain product's stride-k weight reads; 1200×720/b=12 runs pad-and-fold
// on the parallel arm from batch 5 up.
func TestOutputColumnsAnyPartition(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(57))
	for _, sh := range []struct{ rows, cols, block int }{
		{8192, 320, 64}, {512, 512, 64}, {100, 60, 16}, {64, 128, 32}, {1200, 720, 12},
	} {
		m := MustNewBlockCirculant(sh.rows, sh.cols, sh.block).InitRandom(rng)
		for _, batch := range []int{1, 2, 5, 33} {
			xT, xM := randVec(rng, batch*sh.rows), randVec(rng, batch*sh.cols)
			runtime.GOMAXPROCS(1)
			wantT := m.TransMulBatchInto(nil, xT, batch, nil)
			wantM := m.MulBatchInto(nil, xM, batch, nil)
			runtime.GOMAXPROCS(3)
			if !sameBits(m.TransMulBatchInto(nil, xT, batch, nil), wantT) {
				t.Errorf("%+v batch %d: transpose product differs between GOMAXPROCS 1 and 3", sh, batch)
			}
			if !sameBits(m.MulBatchInto(nil, xM, batch, nil), wantM) {
				t.Errorf("%+v batch %d: plain product differs between GOMAXPROCS 1 and 3", sh, batch)
			}
		}
	}

	// The stage called directly at batch 3, both products, every split
	// [0,c) ∪ [c,n) against the single sweep — splits at odd columns and in
	// the middle of a vector included: ragged 100×60 on a power-of-two block
	// and on a folded one (odd output-block counts in the plain product), and
	// two shapes whose output-block counts are even in both forms, so that
	// whole vectors run as column pairs while a split's partial vectors do not.
	const sentinel = -12345.678
	const batch = 3
	for _, tc := range []struct {
		rows, cols, block int
		trans             bool
	}{
		{100, 60, 16, true}, {100, 60, 16, false}, {100, 60, 6, true}, {100, 60, 6, false},
		{128, 256, 64, true}, {128, 256, 64, false}, {96, 64, 16, true}, {96, 64, 16, false},
	} {
		m, trans := MustNewBlockCirculant(tc.rows, tc.cols, tc.block).InitRandom(rng), tc.trans
		inBlks, outBlks, inLen, outLen := m.l, m.k, m.cols, m.rows
		if trans {
			inBlks, outBlks, inLen, outLen = m.k, m.l, m.rows, m.cols
		}
		x := randVec(rng, batch*inLen)
		bias := randVec(rng, outLen)
		half, count, n := m.n/2, batch*inBlks, batch*outBlks
		pitch, opitch := rowPitch(count), rowPitch(n)
		ws := NewBatchWorkspace()
		ws.ensure(half+1, half, pitch, opitch)
		for v := 0; v < batch; v++ {
			m.packColumns(ws, x[v*inLen:(v+1)*inLen], inBlks, pitch, v*inBlks)
		}
		m.rplan.Complex().ForwardSplitManyRev(ws.zAll, pitch, 0, count)
		m.rplan.UnpackSplitMany(ws.specs, ws.zAll, pitch, 0, count)
		sweep := func(ranges ...[2]int) (dst []float64) {
			dst = make([]float64, batch*outLen)
			for _, buf := range [][]float64{dst, ws.acc.Re, ws.acc.Im, ws.z.Re, ws.z.Im} {
				for i := range buf {
					buf[i] = sentinel
				}
			}
			for _, r := range ranges {
				m.outputColumns(ws, dst, inBlks, outBlks, outLen, pitch, opitch, trans, bias, true, r[0], r[1])
			}
			return dst
		}
		want := sweep([2]int{0, n})
		for c := 0; c <= n; c++ {
			if got := sweep([2]int{c, n}, [2]int{0, c}); !sameBits(got, want) {
				t.Errorf("%dx%d b=%d trans=%v: split at column %d of %d differs in bits from the single sweep", tc.rows, tc.cols, tc.block, trans, c, n)
			}
			// A lone [0,c) sweep must leave columns c… alone: in the
			// scratch rows and in the output segments those columns own.
			got := sweep([2]int{0, c})
			for col := c; col < n; col++ {
				for _, buf := range [][]float64{ws.acc.Re, ws.acc.Im, ws.z.Re, ws.z.Im} {
					for r := 0; r*opitch+col < len(buf); r++ {
						if buf[r*opitch+col] != sentinel {
							t.Fatalf("%dx%d b=%d trans=%v: sweep of [0,%d) wrote scratch column %d", tc.rows, tc.cols, tc.block, trans, c, col)
						}
					}
				}
				v, o := col/outBlks, col%outBlks
				for j := v*outLen + o*m.block; j < v*outLen+min((o+1)*m.block, outLen); j++ {
					if got[j] != sentinel {
						t.Fatalf("%dx%d b=%d trans=%v: sweep of [0,%d) wrote output %d of column %d", tc.rows, tc.cols, tc.block, trans, c, j, col)
					}
				}
			}
		}
	}
}

// scaleBy returns x with every element multiplied by f.
func scaleBy(x []float64, f float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v * f
	}
	return out
}

// TestProductIsExactlyHomogeneous: scaling the input — or the weights — by
// a power of two scales every output by exactly that power, bit for bit,
// because every factor between the weight table and the store is either
// data or an exact power of two and nothing on the way adds a constant,
// clamps or flushes. It is the property that lets Refresh fold the
// transforms' 2·2·(b/2) into the table as 1/(2b); the scores themselves are
// pinned against the previous engine by program.TestFloatGoldenScores.
//
// The guarantee ends where the table's extra 1/(2b) pushes an entry into the
// subnormal range: weights near 2⁻¹⁰¹² keep a normal spectrum but a
// subnormal table, whose lost low bits show in the outputs (still to
// ≈ 1e-13 relative). No initialised or trained network is within 300
// orders of magnitude of that.
func TestProductIsExactlyHomogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	const rows, cols, block, batch = 256, 128, 64, 3
	m := MustNewBlockCirculant(rows, cols, block).InitRandom(rng)
	xT, xM := randVec(rng, batch*rows), randVec(rng, batch*cols)
	refT := m.TransMulBatchInto(nil, xT, batch, nil)
	refM := m.MulBatchInto(nil, xM, batch, nil)
	for _, s := range []int{-60, -7, -1, 1, 9, 60} {
		f := math.Ldexp(1, s)
		if !sameBits(m.TransMulBatchInto(nil, scaleBy(xT, f), batch, nil), scaleBy(refT, f)) {
			t.Errorf("TransMulBatchInto(2^%d·x) is not 2^%d·TransMulBatchInto(x) bit for bit", s, s)
		}
		if !sameBits(m.MulBatchInto(nil, scaleBy(xM, f), batch, nil), scaleBy(refM, f)) {
			t.Errorf("MulBatchInto(2^%d·x) is not 2^%d·MulBatchInto(x) bit for bit", s, s)
		}
	}

	scaled := MustNewBlockCirculant(rows, cols, block)
	for _, s := range []int{-900, -40, 40} {
		f := math.Ldexp(1, s)
		copy(scaled.Base.Data, scaleBy(m.Base.Data, f))
		scaled.Refresh()
		if !sameBits(scaled.TransMulBatchInto(nil, xT, batch, nil), scaleBy(refT, f)) {
			t.Errorf("weights × 2^%d: transpose product is not 2^%d × the reference bit for bit", s, s)
		}
		if !sameBits(scaled.MulBatchInto(nil, xM, batch, nil), scaleBy(refM, f)) {
			t.Errorf("weights × 2^%d: plain product is not 2^%d × the reference bit for bit", s, s)
		}
	}

	// Where the guarantee ends. The inputs are scaled up so the outputs
	// themselves stay normal and only the table entries underflow.
	copy(scaled.Base.Data, scaleBy(m.Base.Data, math.Ldexp(1, -1012)))
	scaled.Refresh()
	got := scaled.TransMulBatchInto(nil, scaleBy(xT, math.Ldexp(1, 500)), batch, nil)
	want := scaleBy(refT, math.Ldexp(1, -512))
	differ, scale := 0, 0.0
	for i := range want {
		scale = max(scale, math.Abs(want[i]))
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			differ++
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*scale {
			t.Fatalf("weights × 2^-1012, output %d: %g, want %g within 1e-12 of the largest output", i, got[i], want[i])
		}
	}
	t.Logf("weights × 2^-1012 (table entries subnormal): %d of %d outputs differ in their low bits", differ, len(want))
}

// TestBatchWorkspaceReuse checks a workspace reused across products of
// different shapes and batch sizes — two matrices whose output sides differ
// (3 and 13 output blocks in the transpose product, 4 and 4 of different
// size in the plain one), so the output buffers are re-pitched on every
// call — yields the same results as fresh scratch, and that reuse stops
// allocating once warm.
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
			if !sameBits(tc.m.TransMulBatchInto(nil, x, tc.batch, ws), tc.m.TransMulBatchInto(nil, x, tc.batch, NewBatchWorkspace())) {
				t.Fatalf("trial %d: transpose product on a reused workspace diverged", trial)
			}
			x = randVec(rng, tc.batch*tc.m.Cols())
			if !sameBits(tc.m.MulBatchInto(nil, x, tc.batch, ws), tc.m.MulBatchInto(nil, x, tc.batch, NewBatchWorkspace())) {
				t.Fatalf("trial %d: plain product on a reused workspace diverged", trial)
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
// the engine at batch 1 and above, on power-of-two blocks and on folded
// ones (blocks 1, 3, 6, 12), with and without ReLU.
func TestTransMulBatchFusedMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	shapes := []struct{ rows, cols, block int }{
		{128, 96, 32},  // the engine
		{100, 60, 16},  // padded tails (odd tail handling in storeColumn)
		{30, 42, 6},    // non power-of-two block: pad-and-fold
		{512, 512, 64}, // the benchmark shape
		{9, 7, 1},
		{25, 20, 3},
		{60, 50, 12},
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
// workspace is warm, the full split spectral pass (plain, transpose, fused
// transpose) must not allocate — at batch 1, the paper's one-image-at-a-time
// deployment, as at larger batches — and one workspace walked through the
// batch sequence 1 → 16 → 1 → 7 must keep the buffers it grew at 16 on the
// way down (a smaller product re-slices, it never regrows). The shape stays
// below parallelThreshold so the deterministic serial path runs on every
// host — the parallel path's pfor closures heap-allocate by design.
func TestBatchMulZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	const rows, cols, block = 256, 192, 32
	m := MustNewBlockCirculant(rows, cols, block).InitRandom(rng)
	bias := randVec(rng, cols)
	ws := NewBatchWorkspace()
	caps := func() [4]int {
		return [4]int{cap(ws.zAll.Re), cap(ws.specs.Re), cap(ws.acc.Re), cap(ws.z.Re)}
	}
	var peak [4]int
	for _, batch := range []int{1, 16, 1, 7} {
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
		if batch == 16 {
			peak = caps()
		} else if peak != [4]int{} && caps() != peak {
			t.Errorf("batch %d after 16: workspace capacities %v, want the %v grown at batch 16", batch, caps(), peak)
		}
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
