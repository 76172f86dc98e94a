package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// everyKind builds a small image network holding each of the 14 layer
// kinds at least once.
func everyKind(rng *rand.Rand) *Network {
	fc, err := NewFFTConv2D(tensor.Conv2DGeom{H: 10, W: 10, C: 4, R: 3, P: 4, Stride: 1}, rng)
	if err != nil {
		panic(err)
	}
	return NewNetwork(
		NewConv2D(tensor.Conv2DGeom{H: 12, W: 12, C: 2, R: 3, P: 4, Stride: 1}, rng),
		NewReLU(),
		fc,
		NewBatchNorm(4),
		NewCircConv2D(tensor.Conv2DGeom{H: 8, W: 8, C: 4, R: 3, P: 4, Stride: 1, Pad: 1}, 2, rng),
		NewTanh(),
		NewMaxPool(2),
		NewAvgPool(2),
		NewFlatten(),
		NewCircDense(2*2*4, 12, 4, rng),
		NewSigmoid(),
		NewDropout(0.25, rng.Float64),
		NewDense(12, 8, rng),
		NewBatchNorm(8),
		NewDense(8, 3, rng),
		NewSoftmax(),
	)
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func sameArray(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestCloneIsIndependent holds Clone to its contract on each evaluation
// architecture and on a network of every layer kind, after a training-mode
// forward has moved the BatchNorm statistics: the clone's eval outputs are
// the source's bits, its layer and parameter counts are the source's, it
// shares no parameter or running-statistics array with the source, and
// mutating it leaves the source's outputs unchanged.
func TestCloneIsIndependent(t *testing.T) {
	kinds := map[string]bool{}
	for _, l := range everyKind(rand.New(rand.NewSource(1))).Layers {
		kinds[fmt.Sprintf("%T", l)] = true
	}
	if len(kinds) != 14 {
		t.Fatalf("everyKind holds %d layer kinds, want 14", len(kinds))
	}
	// A layer type Clone does not know is an error, not a shared layer.
	if _, err := NewNetwork(struct{ *ReLU }{NewReLU()}).Clone(); err == nil {
		t.Error("cloning an unknown layer type succeeded")
	}
	for _, tc := range []struct {
		name  string
		build func(*rand.Rand) *Network
		in    []int
	}{
		{"arch1", Arch1, []int{256}},
		{"arch2", Arch2, []int{121}},
		{"arch3", Arch3, []int{32, 32, 3}},
		{"every-kind", everyKind, []int{12, 12, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			net := tc.build(rng)
			x := tensor.New(append([]int{3}, tc.in...)...).Randn(rng, 1)
			net.Forward(x, true)
			want := net.Forward(x, false)

			clone, err := net.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if got := clone.Forward(x, false); !sameBits(got, want) {
				t.Fatal("clone's eval outputs differ from the source's")
			}
			if len(clone.Layers) != len(net.Layers) || clone.NumParams() != net.NumParams() {
				t.Fatalf("clone has %d layers / %d params, source %d / %d",
					len(clone.Layers), clone.NumParams(), len(net.Layers), net.NumParams())
			}
			src := net.Params()
			for i, p := range clone.Params() {
				if sameArray(p.Value.Data, src[i].Value.Data) {
					t.Fatalf("parameter %d (%s) shares its array with the source", i, p.Name)
				}
			}
			for i, l := range clone.Layers {
				if bn, ok := l.(*BatchNorm); ok {
					mean, variance := bn.RunningStats()
					smean, svariance := net.Layers[i].(*BatchNorm).RunningStats()
					if sameArray(*mean, *smean) || sameArray(*variance, *svariance) {
						t.Fatalf("layer %d shares running statistics with the source", i)
					}
				}
			}

			for _, p := range clone.Params() {
				p.Value.Data[0] += 1
				if p.OnUpdate != nil {
					p.OnUpdate()
				}
			}
			clone.Forward(x, true)
			if !sameBits(net.Forward(x, false), want) {
				t.Error("mutating the clone changed the source's outputs")
			}
		})
	}
}
