package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numGrad computes ∂L/∂p numerically for every parameter of net under the
// given loss, by central differences, and compares against the analytic
// gradients accumulated by Backward.
func checkGradients(t *testing.T, net *Network, x *tensor.Tensor, labels []int, loss Loss, eps, tolerance float64) {
	t.Helper()
	// Analytic pass.
	out := net.Forward(x, true)
	_, grad := loss.Forward(out, labels)
	net.Backward(grad)
	params := net.Params()
	analytic := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		analytic[i] = p.Grad.Clone()
		p.ZeroGrad()
	}
	lossAt := func() float64 {
		for _, p := range params {
			if p.OnUpdate != nil {
				p.OnUpdate()
			}
		}
		// Probe in train mode so layers whose inference path differs
		// (BatchNorm running statistics) are differentiated consistently;
		// no stochastic layers are used in gradient-check networks.
		out := net.Forward(x, true)
		l, _ := loss.Forward(out, labels)
		return l
	}
	for pi, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			got := analytic[pi].Data[i]
			if math.Abs(got-want) > tolerance*(1+math.Abs(want)) {
				t.Fatalf("param %d (%s) element %d: analytic %g, numeric %g", pi, p.Name, i, got, want)
			}
		}
	}
	for _, p := range params {
		if p.OnUpdate != nil {
			p.OnUpdate()
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(NewDense(5, 4, rng), NewReLU(), NewDense(4, 3, rng))
	x := tensor.New(2, 5).Randn(rng, 1)
	checkGradients(t, net, x, []int{0, 2}, SoftmaxCrossEntropy{}, 1e-6, 1e-4)
}

func TestCircDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(NewCircDense(6, 8, 4, rng), NewTanh(), NewCircDense(8, 3, 4, rng))
	x := tensor.New(3, 6).Randn(rng, 1)
	checkGradients(t, net, x, []int{0, 1, 2}, SoftmaxCrossEntropy{}, 1e-6, 1e-4)

	// Block 3: the engine's pad-and-fold path.
	net3 := NewNetwork(NewCircDense(7, 5, 3, rng), NewTanh(), NewCircDense(5, 3, 3, rng))
	x3 := tensor.New(3, 7).Randn(rng, 1)
	checkGradients(t, net3, x3, []int{2, 0, 1}, SoftmaxCrossEntropy{}, 1e-6, 1e-4)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.Conv2DGeom{H: 5, W: 5, C: 2, R: 3, P: 2, Stride: 1}
	net := NewNetwork(NewConv2D(g, rng), NewReLU(), NewFlatten(), NewDense(3*3*2, 3, rng))
	x := tensor.New(2, 5, 5, 2).Randn(rng, 1)
	checkGradients(t, net, x, []int{1, 2}, SoftmaxCrossEntropy{}, 1e-6, 1e-4)
}

func TestCircConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := tensor.Conv2DGeom{H: 4, W: 4, C: 4, R: 2, P: 4, Stride: 1}
	net := NewNetwork(NewCircConv2D(g, 2, rng), NewFlatten(), NewDense(3*3*4, 2, rng))
	x := tensor.New(2, 4, 4, 4).Randn(rng, 1)
	checkGradients(t, net, x, []int{0, 1}, SoftmaxCrossEntropy{}, 1e-6, 1e-4)
}

func TestPoolingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork(NewMaxPool(2), NewFlatten(), NewDense(4, 2, rng))
	x := tensor.New(1, 4, 4, 1).Randn(rng, 1)
	checkGradients(t, net, x, []int{1}, SoftmaxCrossEntropy{}, 1e-6, 1e-4)

	net2 := NewNetwork(NewAvgPool(2), NewFlatten(), NewDense(4, 2, rng))
	checkGradients(t, net2, x, []int{0}, SoftmaxCrossEntropy{}, 1e-6, 1e-4)
}

func TestSigmoidGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(NewDense(4, 4, rng), NewSigmoid(), NewDense(4, 2, rng))
	x := tensor.New(2, 4).Randn(rng, 1)
	checkGradients(t, net, x, []int{0, 1}, MSE{}, 1e-6, 1e-4)
}

func TestCircConvForwardMatchesDirectConv(t *testing.T) {
	// The block-circulant CONV layer must compute exactly the convolution
	// its expanded dense filter defines (Fig. 3 equivalence under the
	// Eqn. 6 constraint).
	rng := rand.New(rand.NewSource(7))
	g := tensor.Conv2DGeom{H: 7, W: 6, C: 4, R: 3, P: 6, Stride: 1}
	l := NewCircConv2D(g, 2, rng)
	x := tensor.New(1, g.H, g.W, g.C).Randn(rng, 1)
	got := l.Forward(x, false)
	img := tensor.FromSlice(x.Data, g.H, g.W, g.C)
	want := tensor.Conv2DDirect(img, l.DenseFilter(), g)
	flat := got.Reshape(g.OutH(), g.OutW(), g.P)
	if !flat.AllClose(want, 1e-8) {
		t.Error("CircConv2D forward differs from direct convolution with expanded filter")
	}
}

func TestConv2DForwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := tensor.Conv2DGeom{H: 6, W: 6, C: 3, R: 3, P: 4, Stride: 1, Pad: 1}
	l := NewConv2D(g, rng)
	x := tensor.New(1, g.H, g.W, g.C).Randn(rng, 1)
	got := l.Forward(x, false).Reshape(g.OutH(), g.OutW(), g.P)
	img := tensor.FromSlice(x.Data, g.H, g.W, g.C)
	want := tensor.Conv2DDirect(img, l.f.Value, g)
	if !got.AllClose(want, 1e-8) {
		t.Error("Conv2D forward differs from direct convolution")
	}
}

func TestMaxPoolForward(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 4, 4, 1)
	got := NewMaxPool(2).Forward(x, false)
	want := []float64{4, 8, 12, 16}
	for i, w := range want {
		if got.Data[i] != w {
			t.Errorf("maxpool[%d] = %g, want %g", i, got.Data[i], w)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.New(4, 10).Randn(rng, 5)
	out := NewSoftmax().Forward(x, false)
	for i := 0; i < 4; i++ {
		s := 0.0
		for _, v := range out.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("probability %g outside [0,1]", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("row %d sums to %g", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	x := tensor.FromSlice([]float64{1e4, 1e4 - 1}, 1, 2)
	out := NewSoftmax().Forward(x, false)
	if math.IsNaN(out.Data[0]) || math.IsInf(out.Data[0], 0) {
		t.Error("softmax overflowed on large logits")
	}
}

func TestDropoutTrainVsInference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDropout(0.5, rng.Float64)
	x := tensor.New(1, 1000)
	x.Fill(1)
	inf := d.Forward(x, false)
	if !inf.AllClose(x, 0) {
		t.Error("dropout must be identity at inference")
	}
	tr := d.Forward(x, true)
	zeros := 0
	for _, v := range tr.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("surviving activation %g, want 2 (inverted scaling)", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropped %d of 1000 at rate 0.5", zeros)
	}
}

func TestTrainingConvergesOnSeparableClusters(t *testing.T) {
	// A tiny 3-class Gaussian-cluster problem: the circulant network must fit
	// it to high accuracy, demonstrating Algorithm 2 end to end.
	rng := rand.New(rand.NewSource(11))
	centers := [][]float64{{3, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 3, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 3, 0, 0}}
	n := 150
	x := tensor.New(n, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = c
		for j := 0; j < 8; j++ {
			x.Set(centers[c][j]+rng.NormFloat64()*0.4, i, j)
		}
	}
	net := NewNetwork(NewCircDense(8, 16, 8, rng), NewReLU(), NewCircDense(16, 3, 8, rng))
	opt := NewSGD(0.05, 0.9)
	loss := SoftmaxCrossEntropy{}
	var last float64
	for epoch := 0; epoch < 60; epoch++ {
		last = net.TrainBatch(x, labels, loss, opt)
	}
	if acc := net.Accuracy(x, labels); acc < 0.95 {
		t.Errorf("training accuracy %.3f < 0.95 (final loss %.4f)", acc, last)
	}
}

func TestSGDMomentumUpdatesMatchHandComputation(t *testing.T) {
	p := &Param{Value: tensor.FromSlice([]float64{1}, 1), Grad: tensor.FromSlice([]float64{2}, 1)}
	s := NewSGD(0.1, 0.5)
	s.Step([]*Param{p}) // v = -0.2, w = 0.8; grad cleared
	if math.Abs(p.Value.Data[0]-0.8) > 1e-12 {
		t.Fatalf("after step 1: w = %g, want 0.8", p.Value.Data[0])
	}
	if p.Grad.Data[0] != 0 {
		t.Fatal("gradient not cleared after step")
	}
	p.Grad.Data[0] = 2
	s.Step([]*Param{p}) // v = 0.5·(−0.2) − 0.2 = −0.3, w = 0.5
	if math.Abs(p.Value.Data[0]-0.5) > 1e-12 {
		t.Fatalf("after step 2: w = %g, want 0.5", p.Value.Data[0])
	}
}

func TestArchParameterCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a1 := Arch1(rng)
	a1d := Arch1Dense(rng)
	// Arch-1 circulant: (256·128)/64·64 stays... the point: far fewer
	// parameters than dense, and the ratio on the two circulant layers is b.
	if a1.NumParams() >= a1d.NumParams() {
		t.Errorf("circulant Arch-1 has %d params, dense %d — compression missing",
			a1.NumParams(), a1d.NumParams())
	}
	// Paper Table II note: Arch-1 stores about 2× the parameters of Arch-2.
	a2 := Arch2(rng)
	ratio := float64(a1.NumParams()) / float64(a2.NumParams())
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("Arch-1/Arch-2 parameter ratio %.2f outside [1.5,3]", ratio)
	}
}

func TestCountOpsCirculantBeatsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := tensor.New(1, 256).Randn(rng, 1)
	circ := Arch1(rng)
	dense := Arch1Dense(rng)
	circ.Forward(x, false)
	dense.Forward(x, false)
	cc := circ.CountOps()
	dc := dense.CountOps()
	if cc.Flops() >= dc.Flops() {
		t.Errorf("circulant flops %.0f should beat dense %.0f", cc.Flops(), dc.Flops())
	}
}

func TestNetworkSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	s := Arch1(rng).Summary()
	if s == "" {
		t.Fatal("empty summary")
	}
	for _, want := range []string{"circdense(256x128,b=64)", "dense(128x10)", "total params"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestLossesPenaliseWrongAnswers(t *testing.T) {
	good := tensor.FromSlice([]float64{10, -10}, 1, 2)
	bad := tensor.FromSlice([]float64{-10, 10}, 1, 2)
	for _, loss := range []Loss{SoftmaxCrossEntropy{}, MSE{}} {
		lg, _ := loss.Forward(good, []int{0})
		lb, _ := loss.Forward(bad, []int{0})
		if lg >= lb {
			t.Errorf("%s: loss(good)=%g not below loss(bad)=%g", loss.Name(), lg, lb)
		}
	}
}
