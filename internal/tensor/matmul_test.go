package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatMulIntoMatchesReference holds MatMulInto to matMulGo, the Go loops,
// bit for bit: the ±0 skip, subnormal and near-underflow inputs, and Inf and
// NaN weights both where the input is ±0 (skipped, so they must not reach
// the output) and where it is not (they must). Which of two NaN operands a
// sum passes on is the compiler's choice of operand roles, and differs
// between builds (the race detector's, for one), so a NaN output only has to
// be a NaN.
func TestMatMulIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072e-308, 1e-300, -1e-300,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000abc), 1e300,
	}
	draw := func(zeros float64) float64 {
		switch r := rng.Float64(); {
		case r < zeros:
			return [2]float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
		case r < zeros+0.1:
			return special[rng.Intn(len(special))]
		default:
			return rng.NormFloat64()
		}
	}
	for _, m := range []int{1, 3, 16} {
		for _, k := range []int{1, 27, 128, 576} {
			for _, n := range []int{1, 2, 9, 10, 64} {
				for trial := 0; trial < 4; trial++ {
					a, b := New(m, k), New(k, n)
					for i := range a.Data {
						a.Data[i] = draw(0.5)
					}
					for i := range b.Data {
						// Trials 0 and 1 keep every weight finite, so the
						// outputs are finite sums and not all NaN.
						if trial < 2 {
							b.Data[i] = rng.NormFloat64()
						} else {
							b.Data[i] = draw(0.05)
						}
					}
					want := New(m, n)
					matMulGo(want.Data, a.Data, b.Data, m, k, n)
					got := New(m, n)
					got.Fill(math.NaN())
					MatMulInto(got, a, b)
					for i := range want.Data {
						g, w := got.Data[i], want.Data[i]
						if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
							t.Fatalf("m=%d k=%d n=%d trial %d: out[%d] = %v (%#x), Go loops %v (%#x)", m, k, n, trial, i,
								got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}
