package circulant

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fft"
)

// storeSpecials are the values a store's epilogue must carry with the Go
// loop's bits: signed zeros (whose sums with a zero bias decide ReLU's sign
// case), NaNs of either sign and with a payload, infinities and subnormals.
var storeSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000abc), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e-300, -1e-300,
}

// TestPackPairsMatchGoLoop holds the exact-tiling pack to its definition,
// element for element: packed row j of block i, at row perm[j] and column
// col0+i, holds x[i·b+2j] in Re and x[i·b+2j+1] in Im, and nothing outside
// the vector's columns is written — across block sizes, block counts odd and
// even, pitches and column offsets.
func TestPackPairsMatchGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, sh := range []struct{ inBlks, block int }{{1, 8}, {2, 8}, {3, 16}, {4, 64}, {5, 4}, {2, 2}} {
		m := MustNewBlockCirculant(sh.inBlks*sh.block, 8, sh.block)
		half, perm := m.n/2, m.rplan.Complex().BitReversal()
		for _, pitch := range []int{sh.inBlks, sh.inBlks + 1, 2*sh.inBlks + 3, 40} {
			for col0 := 0; col0+sh.inBlks <= pitch; col0 += max(1, (pitch-sh.inBlks)/3) {
				x := make([]float64, sh.inBlks*sh.block)
				for i := range x {
					x[i] = rng.NormFloat64()
					if rng.Intn(4) == 0 {
						x[i] = storeSpecials[rng.Intn(len(storeSpecials))]
					}
				}
				ws := NewBatchWorkspace()
				ws.ensure(half+1, half, pitch, pitch)
				const sentinel = -7.25
				for i := range ws.zAll.Re {
					ws.zAll.Re[i], ws.zAll.Im[i] = sentinel, sentinel
				}
				m.packColumns(ws, x, sh.inBlks, pitch, col0)
				for j := 0; j < half; j++ {
					for c := 0; c < pitch; c++ {
						wantR, wantI := sentinel, sentinel
						if i := c - col0; i >= 0 && i < sh.inBlks {
							wantR, wantI = x[i*sh.block+2*j], x[i*sh.block+2*j+1]
						}
						r := int(perm[j])*pitch + c
						if math.Float64bits(ws.zAll.Re[r]) != math.Float64bits(wantR) || math.Float64bits(ws.zAll.Im[r]) != math.Float64bits(wantI) {
							t.Fatalf("%+v pitch %d col0 %d: packed row %d column %d = (%v, %v), want (%v, %v)",
								sh, pitch, col0, j, c, ws.zAll.Re[r], ws.zAll.Im[r], wantR, wantI)
						}
					}
				}
			}
		}
	}
}

// TestStoreColumnsMatchGoLoop holds storeColumns to storeColumnsGo, the Go
// loops, bit for bit: one and two columns, even and odd run lengths, pitches
// and column offsets, all three epilogues (copy, bias, bias and ReLU) and the
// weight gradient's bias that is the output itself, over inputs holding NaNs
// of either sign, signed zeros and infinities — ReLU must give max's NaN and
// +0 for −0 — and nothing outside the runs may be written.
func TestStoreColumnsMatchGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return storeSpecials[rng.Intn(len(storeSpecials))]
		}
		return rng.NormFloat64()
	}
	const sentinel = -7.25
	for _, l := range []int{1, 2, 3, 4, 7, 32, 64} {
		rows := (l + 1) / 2
		for _, pitch := range []int{2, 3, 9, 72} {
			z := fft.SplitSlice{Re: make([]float64, rows*pitch), Im: make([]float64, rows*pitch)}
			for i := range z.Re {
				z.Re[i], z.Im[i] = draw(), draw()
			}
			for cols := 1; cols <= 2; cols++ {
				for col := 0; col+cols <= pitch; col += max(1, pitch/4) {
					for epi := 0; epi < 4; epi++ { // copy, bias, bias+ReLU, bias = seg
						bias := make([]float64, cols*l)
						for i := range bias {
							bias[i] = draw()
							if rng.Intn(4) == 0 {
								bias[i] = math.Copysign(0, -1)
							}
						}
						run := func(store func(seg, zRe, zIm []float64, pitch, col, cols int, bias []float64, relu bool)) []float64 {
							buf := make([]float64, cols*l+2)
							for i := range buf {
								buf[i] = sentinel
							}
							seg := buf[1 : 1+cols*l]
							switch epi {
							case 0:
								store(seg, z.Re, z.Im, pitch, col, cols, nil, false)
							case 1, 2:
								store(seg, z.Re, z.Im, pitch, col, cols, bias, epi == 2)
							case 3:
								copy(seg, bias)
								store(seg, z.Re, z.Im, pitch, col, cols, seg, false)
							}
							return buf
						}
						got, want := run(storeColumns), run(storeColumnsGo)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("run length %d pitch %d col %d cols %d epilogue %d: element %d = %v (%#x), Go loops %v (%#x)",
									l, pitch, col, cols, epi, i-1, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}
