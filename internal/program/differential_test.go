package program_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/tensor"
)

// randomFCArch writes a 1–3 layer fully-connected stack in the architecture
// file grammar: widths 1–300, circulant layers over power-of-two,
// pad-and-fold and unit blocks with ragged edges wherever the block does not
// divide a width, dense layers in between, with and without a softmax.
func randomFCArch(rng *rand.Rand) string {
	blocks := []int{1, 2, 3, 8, 12, 32, 64}
	var b strings.Builder
	fmt.Fprintf(&b, "input %d\n", 1+rng.Intn(300))
	for layers := 1 + rng.Intn(3); layers > 0; layers-- {
		act := ""
		if layers > 1 || rng.Intn(2) == 0 {
			act = " act=relu"
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, "fc %d%s\n", 1+rng.Intn(300), act)
		} else {
			fmt.Fprintf(&b, "circfc %d block=%d%s\n", 1+rng.Intn(300), blocks[rng.Intn(len(blocks))], act)
		}
	}
	if rng.Intn(2) == 0 {
		b.WriteString("softmax\n")
	}
	return b.String()
}

// TestDifferentialFC is the fully-connected slice of the cross-path
// differential harness: seeded random architectures through the engine's
// parser, random batches, and every execution path of a network held to its
// documented relation with the interpreted forward pass —
//
//   - Float64Split within 1e-12 and DenseRef within 1e-9 of ForwardWS;
//   - Int16Spectral at a precision drawn per case from {8, 12, 16}, so both
//     groupings of the integer circulant product run (two input segments
//     per field word where the range allows, one at 16 bits): every
//     integer circulant product equal to its time-domain definition, and at
//     12 bits the scores within the benchmark oracle's bound
//     (bench/oracle.go), 5e-3 of the reference row's largest |score|;
//   - a row's scores the same bits alone and inside the batch, on both the
//     float and the fixed-point build.
//
// Each case is a subtest named by its seed: replay one with
// -run 'TestDifferentialFC/seed=<n>$'.
func TestDifferentialFC(t *testing.T) {
	const cases = 200
	products := 0
	groupings := map[string]int{}
	for seed := int64(1); seed <= cases; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			arch := randomFCArch(rng)
			e, err := engine.ParseArchitecture(strings.NewReader(arch), rng)
			if err != nil {
				t.Fatalf("generated architecture rejected: %v\n%s", err, arch)
			}
			for _, p := range e.Net.Params() {
				if strings.HasPrefix(p.Name, "w") {
					continue // keep the initialiser's scale; biases start at zero
				}
				p.Value.Randn(rng, 0.1)
			}
			in := e.InShape[0]
			batch := 1 + rng.Intn(9)
			x := tensor.New(batch, in).Randn(rng, 1)
			want := append([]float64(nil), e.Net.ForwardWS(nn.NewWorkspace(), x, false).Data...)
			width := len(want) / batch
			bits := []int{8, 12, 16}[rng.Intn(3)]

			compile := func(b program.Backend) *program.Program {
				p, err := program.Compile(e.Net, program.CompileOptions{InShape: e.InShape, Backend: b})
				if err != nil {
					t.Fatalf("%s: %v\n%s", b.Name(), err, arch)
				}
				return p
			}
			maxDiff := func(got []float64) float64 {
				m := 0.0
				for i := range got {
					m = math.Max(m, math.Abs(got[i]-want[i]))
				}
				return m
			}
			// rowsAlone re-runs every sample at batch 1 and requires the bits
			// it had inside the batch.
			rowsAlone := func(p *program.Program, inBatch []float64) {
				for v := 0; v < batch; v++ {
					alone := p.Run(tensor.FromSlice(x.Row(v), 1, in)).Data
					for j, s := range alone {
						if math.Float64bits(s) != math.Float64bits(inBatch[v*width+j]) {
							t.Errorf("%s: sample %d score %d = %v alone, %v in a batch of %d\n%s",
								p.BackendName(), v, j, s, inBatch[v*width+j], batch, arch)
							return
						}
					}
				}
			}

			fp := compile(program.Float64Split())
			got := append([]float64(nil), fp.Run(x).Data...)
			if d := maxDiff(got); d > 1e-12 {
				t.Errorf("Float64Split deviates from ForwardWS by %g\n%s", d, arch)
			}
			rowsAlone(fp, got)

			if d := maxDiff(compile(program.DenseRef()).Run(x).Data); d > 1e-9 {
				t.Errorf("DenseRef deviates from ForwardWS by %g\n%s", d, arch)
			}

			qp := compile(program.Int16Spectral(bits, bits))
			y, checked, bad := qp.RunCheckingQCirc(x)
			products += checked
			if bad > 0 {
				t.Errorf("%s: %d integer accumulators differ from the time-domain definition\n%s", qp.BackendName(), bad, arch)
			}
			for _, o := range qp.Ops() {
				if o.Kind == program.KindBlockCircMul {
					groupings[o.Detail[strings.LastIndex(o.Detail, ",")+1:]]++
				}
			}
			got = append(got[:0], y.Data...)
			for v := 0; v < batch && bits == 12; v++ {
				peak := 0.0
				for _, s := range want[v*width : (v+1)*width] {
					peak = math.Max(peak, math.Abs(s))
				}
				tol := 5e-3 * peak
				for j := 0; j < width; j++ {
					if d := math.Abs(got[v*width+j] - want[v*width+j]); !(d <= tol) {
						t.Errorf("Int16Spectral(12,12) sample %d score %d off by %g, bound %g\n%s", v, j, d, tol, arch)
						break
					}
				}
			}
			rowsAlone(qp, got)
		})
	}
	if products < cases {
		t.Errorf("only %d integer circulant products checked over %d cases; the generator lost its coverage", products, cases)
	}
	if groupings["1seg/word"] == 0 || groupings["2seg/word"] == 0 {
		t.Errorf("integer circulant products by grouping %v; the generator lost one of them", groupings)
	}
}
