package main

import (
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The oracle is the benchmark's own copy of the served network, run
// through the interpreted nn.Network.ForwardWS path — the reference the
// repo's compiled programs are tested against, and a different code path
// from every system under test. Every response is class-checked against
// it and one in scoreCheckEvery is score-checked.

const (
	// floatTol bounds the float paths (compiled Float64Split, alone or
	// behind any number of serving layers) against the interpreted pass.
	floatTol = 1e-9
	// fixedRelTol bounds Int16Spectral(12,12) scores, as a share of the
	// reference row's largest |score|.
	fixedRelTol = 5e-3
	// scoreCheckEvery is the share of ops whose full score row is compared.
	scoreCheckEvery = 64
)

// newModel builds the Arch-1 network every workload serves.
func newModel() *nn.Network {
	return nn.Arch1(rand.New(rand.NewSource(modelSeed)))
}

type oracle struct {
	classes []int
	scores  [][]float64
	tol     []float64 // per input: absolute score tolerance
}

// newOracle precomputes the expected output of every pool input. relTol 0
// selects the float tolerance; otherwise the tolerance is relTol·max|row|.
func newOracle(net *nn.Network, pool [][]float64, relTol float64) *oracle {
	rows := forwardAll(net, pool)
	o := &oracle{classes: make([]int, len(pool)), scores: rows, tol: make([]float64, len(pool))}
	for i, row := range rows {
		o.classes[i] = nn.Argmax(row)
		o.tol[i] = floatTol
		if relTol > 0 {
			peak := 0.0
			for _, v := range row {
				peak = math.Max(peak, math.Abs(v))
			}
			o.tol[i] = relTol * peak
		}
	}
	return o
}

// forwardAll runs pool through net's interpreted forward pass in batches
// and returns one freshly allocated output row per input.
func forwardAll(net *nn.Network, pool [][]float64) [][]float64 {
	const batch = 64
	ws := nn.NewWorkspace()
	features := len(pool[0])
	x := tensor.New(batch, features)
	out := make([][]float64, len(pool))
	for lo := 0; lo < len(pool); lo += batch {
		n := min(batch, len(pool)-lo)
		xb := x
		if n != batch {
			xb = tensor.New(n, features)
		}
		for i := 0; i < n; i++ {
			copy(xb.Data[i*features:(i+1)*features], pool[lo+i])
		}
		y := net.ForwardWS(ws, xb, false)
		width := y.Len() / n
		for i := 0; i < n; i++ {
			out[lo+i] = append([]float64(nil), y.Data[i*width:(i+1)*width]...)
		}
	}
	return out
}

// embeddingNet is the network minus its classifier head: its output is
// the penultimate activation cmd/serve -embed returns.
func embeddingNet(net *nn.Network) *nn.Network {
	return nn.NewNetwork(net.Layers[:len(net.Layers)-1]...)
}

// corrupt falsifies the expected class of one input — the test hook that
// proves a wrong answer fails the run.
func (o *oracle) corrupt(idx int) {
	o.classes[idx] = (o.classes[idx] + 1) % len(o.scores[idx])
	o.scores[idx][o.classes[idx]] += 1e6
}

// check reports whether an answer for pool input idx is correct. The
// class must be the oracle's argmax, or tie with it within tolerance;
// with deep set every score must match within tolerance too.
func (o *oracle) check(idx, class int, scores []float64, deep bool) bool {
	want, tol := o.scores[idx], o.tol[idx]
	if class != o.classes[idx] {
		if class < 0 || class >= len(want) || want[o.classes[idx]]-want[class] > 2*tol {
			return false
		}
	}
	if !deep {
		return true
	}
	return rowsClose(want, scores, tol)
}

func rowsClose(want, got []float64, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for j, v := range got {
		if !(math.Abs(v-want[j]) <= tol) {
			return false
		}
	}
	return true
}
