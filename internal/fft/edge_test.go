package fft

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Edge-size and concurrency coverage: the Bluestein arbitrary-length path,
// degenerate size-1/size-2 transforms, plan sharing across goroutines, and
// the batched/real planned paths against their unplanned references.

// TestBluesteinEdgeSizes drives FFT/IFFT through every small non-power-of-two
// length plus the awkward cases (primes, 2n−1 padding boundaries, the
// paper's 121-point Arch-2 inputs) against the O(n²) oracle.
func TestBluesteinEdgeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{3, 5, 6, 7, 9, 11, 12, 13, 15, 17, 31, 33, 63, 97, 100, 121, 127, 255}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			x := randComplex(rng, n)
			got := FFT(x)
			want := dftRef(x)
			for k := range want {
				if d := cmplxAbs(got[k] - want[k]); d > 1e-9 {
					t.Fatalf("bin %d: FFT %v, DFT %v (|Δ|=%g)", k, got[k], want[k], d)
				}
			}
			back := IFFT(got)
			for k := range x {
				if d := cmplxAbs(back[k] - x[k]); d > 1e-9 {
					t.Fatalf("round trip bin %d: %v, want %v", k, back[k], x[k])
				}
			}
		})
	}
}

// TestTinyTransforms pins the size-1 and size-2 behaviour of every planned
// entry point: a 1-point DFT is the identity, a 2-point DFT is the
// sum/difference butterfly.
func TestTinyTransforms(t *testing.T) {
	// Size 1: identity for Plan and FFT/IFFT.
	p1, err := NewPlan(1)
	if err != nil {
		t.Fatal(err)
	}
	in1 := []complex128{complex(3, -2)}
	out1 := make([]complex128, 1)
	p1.Forward(out1, in1)
	if out1[0] != in1[0] {
		t.Fatalf("1-point forward: %v, want %v", out1[0], in1[0])
	}
	p1.Inverse(out1, out1)
	if out1[0] != in1[0] {
		t.Fatalf("1-point inverse: %v, want %v", out1[0], in1[0])
	}

	// Size 2: X0 = x0+x1, X1 = x0−x1.
	p2, err := NewPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	in2 := []complex128{complex(1, 2), complex(-4, 0.5)}
	out2 := make([]complex128, 2)
	p2.Forward(out2, in2)
	if out2[0] != in2[0]+in2[1] || out2[1] != in2[0]-in2[1] {
		t.Fatalf("2-point forward: %v", out2)
	}
	p2.Inverse(out2, out2)
	for k := range in2 {
		if cmplxAbs(out2[k]-in2[k]) > 1e-15 {
			t.Fatalf("2-point round trip bin %d: %v, want %v", k, out2[k], in2[k])
		}
	}

	// Size-2 real plan against RFFT.
	rp, err := NewRealPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1.5, -0.25}
	spec, z := NewSplit(rp.SpecLen()), NewSplit(rp.Size()/2)
	rp.ForwardSplit(spec, x, z)
	want := RFFT(x)
	for k := range want {
		if got := complex(spec.Re[k], spec.Im[k]); cmplxAbs(got-want[k]) > 1e-15 {
			t.Fatalf("real 2-point bin %d: %v, want %v", k, got, want[k])
		}
	}
	back := make([]float64, 2)
	rp.InverseSplit(back, spec, z)
	for k := range x {
		if d := back[k] - x[k]; d > 1e-15 || d < -1e-15 {
			t.Fatalf("real 2-point round trip: %v, want %v", back, x)
		}
	}
}

// TestRealPlanMatchesRFFT checks the planned half-spectrum transform against
// the allocating RFFT/IRFFT across sizes, including zero-padded short
// inputs (the tail-block case of the block-circulant layers).
func TestRealPlanMatchesRFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{2, 4, 8, 16, 64, 256, 1024} {
		rp := RealPlanFor(n)
		if rp.Size() != n || rp.SpecLen() != n/2+1 {
			t.Fatalf("n=%d: Size=%d SpecLen=%d", n, rp.Size(), rp.SpecLen())
		}
		for _, m := range []int{n, n - 1, n/2 + 1} {
			if m < 1 {
				continue
			}
			x := randReal(rng, m)
			padded := make([]float64, n)
			copy(padded, x)
			want := RFFT(padded)

			spec, z := NewSplit(rp.SpecLen()), NewSplit(n/2)
			rp.ForwardSplit(spec, x, z) // short x: implicit zero pad
			for k := range want {
				if got := complex(spec.Re[k], spec.Im[k]); cmplxAbs(got-want[k]) > 1e-12 {
					t.Fatalf("n=%d m=%d bin %d: planned %v, RFFT %v", n, m, k, got, want[k])
				}
			}

			back := make([]float64, m) // truncated recovery
			rp.InverseSplit(back, spec, z)
			for j := range back {
				if d := back[j] - x[j]; d > 1e-12 || d < -1e-12 {
					t.Fatalf("n=%d m=%d sample %d: inverse %g, want %g", n, m, j, back[j], x[j])
				}
			}
		}
	}
}

// TestPlanSharedAcrossGoroutines hammers one Plan, one RealPlan and one
// Plan2D from many goroutines at once; the plans are immutable and the race
// detector (CI runs this package under -race) must stay silent while every
// goroutine gets correct results.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	const n, workers, iters = 128, 8, 50
	rng := rand.New(rand.NewSource(44))
	p := PlanFor(n)
	rp := RealPlanFor(n)
	p2, err := NewPlan2D(8, 16)
	if err != nil {
		t.Fatal(err)
	}

	x := randComplex(rng, n)
	want := dftRef(x)
	xr := randReal(rng, n)
	wantR := RFFT(xr)
	x2 := randComplex(rng, 8*16)
	want2 := FFT2(x2, 8, 16)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]complex128, n)
			spec, z := NewSplit(rp.SpecLen()), NewSplit(n/2)
			out2 := make([]complex128, 8*16)
			col := make([]complex128, 8)
			for it := 0; it < iters; it++ {
				p.Forward(out, x)
				for k := range want {
					if cmplxAbs(out[k]-want[k]) > 1e-9 {
						errs <- fmt.Errorf("complex bin %d: %v, want %v", k, out[k], want[k])
						return
					}
				}
				rp.ForwardSplit(spec, xr, z)
				for k := range wantR {
					if got := complex(spec.Re[k], spec.Im[k]); cmplxAbs(got-wantR[k]) > 1e-9 {
						errs <- fmt.Errorf("real bin %d: %v, want %v", k, got, wantR[k])
						return
					}
				}
				p2.Forward(out2, x2, col)
				for k := range want2 {
					if out2[k] != want2[k] {
						errs <- fmt.Errorf("2-D bin %d: %v, want %v", k, out2[k], want2[k])
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

// TestPlan2DMatchesFFT2 checks the planned 2-D transform is bit-identical to
// the unplanned path on power-of-two shapes, forward and inverse.
func TestPlan2DMatchesFFT2(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, dims := range [][2]int{{1, 1}, {1, 8}, {8, 1}, {4, 16}, {16, 16}} {
		rows, cols := dims[0], dims[1]
		p, err := NewPlan2D(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		x := randComplex(rng, rows*cols)
		col := make([]complex128, rows)
		got := make([]complex128, len(x))
		p.Forward(got, x, col)
		want := FFT2(x, rows, cols)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%dx%d forward bin %d: %v, want %v", rows, cols, k, got[k], want[k])
			}
		}
		p.Inverse(got, got, col)
		wantInv := IFFT2(want, rows, cols)
		for k := range wantInv {
			if got[k] != wantInv[k] {
				t.Fatalf("%dx%d inverse bin %d: %v, want %v", rows, cols, k, got[k], wantInv[k])
			}
		}
	}
	if _, err := NewPlan2D(3, 8); err == nil {
		t.Fatal("NewPlan2D accepted non-power-of-two rows")
	}
	if _, err := NewRealPlan(12); err == nil {
		t.Fatal("NewRealPlan accepted non-power-of-two size")
	}
	if _, err := NewRealPlan(1); err == nil {
		t.Fatal("NewRealPlan accepted size 1")
	}
}

func cmplxAbs(c complex128) float64 {
	re, im := real(c), imag(c)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	return re + im
}
