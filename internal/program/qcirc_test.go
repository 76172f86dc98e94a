package program

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// qcircDefinition is the oracle of the integer block-circulant product: the
// time-domain definition (Cᵀx)_t = Σ_s w[(s−t) mod b]·x_s over the quantised
// defining vectors, block by block, with the ragged edges' implicit zero
// padding — what execQCirc computed directly before it moved to the
// transform domain, and what it must still return bit for bit.
func qcircDefinition(o *op, qx []int16, batch int) []int64 {
	m := o.circ
	_, l := m.Grid()
	b := m.BlockSize()
	rows, cols := m.Rows(), m.Cols()
	out := make([]int64, batch*cols)
	for v := 0; v < batch; v++ {
		x := qx[v*rows : (v+1)*rows]
		for t := 0; t < cols; t++ {
			j, tt := t/b, t%b
			var acc int64
			for s, xs := range x {
				i, ss := s/b, s%b
				acc += int64(o.qw.Data[(i*l+j)*b+(ss-tt+b)%b]) * int64(xs)
			}
			out[v*cols+t] = acc
		}
	}
	return out
}

// TestQCircExact: after Run, the accumulators of the integer circulant
// product equal the time-domain definition evaluated on the same quantised
// activations and weights — exactly, not within a tolerance — and the
// listing shows the grouping the pairing gate chose. The cases cover
// power-of-two blocks, pad-and-fold blocks (b = 10, 3, 12), ragged rows and
// columns, odd segment counts, block 1, a 2-bit build and Arch-3's widest FC
// layer; every random case is repeated with the weights saturated too.
//
// Row 1 of every batch is saturated to ±max with the signs of the weights
// output 0 meets (lane 0), or of each pair's lane-0 weights (lane 1), so
// that output reaches the driven lane's bound. The constructed rows set
// integer weights of chosen L1 norms with alternating signs, negated on odd
// segments, so that lane reaches 2³¹ − 512 against the 2³¹ − 1 gate in lane
// 1 (and pairs), 2³¹ + 1535 (and must not pair), and 2³¹ − 512 in lane 0
// beside a lone last segment.
func TestQCircExact(t *testing.T) {
	for _, tc := range []struct {
		in, out, b, bits int
		group            int   // input segments per field word in the listing
		norms            []int // ‖w_i0‖₁ of constructed weights; nil draws them
		lane             int   // the lane row 1 drives at output 0
		peak             int64 // that lane's value there; 0 leaves it unchecked
	}{
		{256, 128, 64, 12, 2, nil, 0, 0},
		{121, 64, 32, 12, 2, nil, 0, 0},
		{64, 64, 64, 16, 1, nil, 0, 0},
		{100, 50, 10, 16, 1, nil, 0, 0},
		{7, 5, 3, 8, 2, nil, 0, 0},
		{8, 8, 1, 12, 2, nil, 0, 0},
		{9, 4, 1, 12, 2, nil, 0, 0},
		{3200, 512, 128, 16, 1, nil, 0, 0},
		{30, 20, 12, 16, 1, nil, 0, 0},
		{30, 20, 12, 12, 2, nil, 0, 0},
		{16, 16, 2, 2, 2, nil, 0, 0},
		{512, 256, 256, 12, 2, []int{349696, 349696}, 1, 1<<31 - 512},
		{512, 256, 256, 12, 1, []int{349697, 349696}, 1, 1<<31 + 1535},
		{768, 256, 256, 12, 2, []int{524032, 1024, 524032}, 0, 1<<31 - 512},
	} {
		for _, saturateW := range []bool{false, true} {
			if saturateW && tc.norms != nil {
				continue
			}
			rng := rand.New(rand.NewSource(int64(tc.in*1000 + tc.b)))
			layer := nn.NewCircDense(tc.in, tc.out, tc.b, rng)
			base := layer.W.Base.Data
			if saturateW {
				for i := range base {
					base[i] = float64(1 - 2*rng.Intn(2))
				}
			}
			if tc.norms != nil { // l = 1: segment i's block is base[i·b:(i+1)·b]
				clear(base)
				for i, norm := range tc.norms {
					for t := i * tc.b; norm > 0; t++ {
						base[t] = float64(min(norm, 2047) * (1 - 2*(t%2)) * (1 - 2*(i%2)))
						norm -= min(norm, 2047)
					}
				}
			}
			layer.W.Refresh()
			prog, err := Compile(nn.NewNetwork(layer), CompileOptions{InShape: []int{tc.in}, Backend: Int16Spectral(tc.bits, tc.bits)})
			if err != nil {
				t.Fatal(err)
			}
			const batch = 3
			x := tensor.New(batch, tc.in).Randn(rng, 1)
			_, l := layer.W.Grid()
			for s, row := 0, x.Row(1); s < len(row); s++ {
				i := s / tc.b
				i -= i % 2 * tc.lane
				row[s] = 1 // every activation quantises to ±(2^(bits−1) − 1)
				if base[i*l*tc.b+s%tc.b] < 0 {
					row[s] = -1
				}
			}
			prog.Run(x)
			mul := &prog.ops[1]
			if !mul.quantized || mul.circ == nil || len(prog.ops) != 3 {
				t.Fatalf("%v: compiled to %v, want Quantize → integer circulant product → Dequantize", tc, prog.Ops())
			}
			if got, want := prog.Ops()[1].Detail, fmt.Sprintf(",%dseg/word", tc.group); !strings.HasSuffix(got, want) {
				t.Errorf("%v saturated weights %v: listing %q, want grouping %q", tc, saturateW, got, want)
			}
			want := qcircDefinition(mul, prog.qx, batch)
			var peak int64
			for i, w := range want {
				if got := prog.qacc[i]; got != w {
					t.Fatalf("%v saturated weights %v: accumulator %d (sample %d, output %d) = %d, definition gives %d",
						tc, saturateW, i, i/tc.out, i%tc.out, got, w)
				}
				peak = max(peak, w, -w)
			}
			if peak == 0 {
				t.Errorf("%v: every accumulator is zero; the comparison is vacuous", tc)
			}
			lane := want[tc.out] // output 0 of row 1
			if tc.lane == 1 {
				lane = qcircLane1(mul, prog.qx[tc.in:2*tc.in])
			}
			if tc.peak != 0 && lane != tc.peak {
				t.Errorf("%v: lane %d of row 1, output 0 = %d, want %d", tc, tc.lane, lane, tc.peak)
			}
		}
	}
}

// qcircLane1 is the lane-1 value of a paired accumulator at output 0 for
// activations x: Σ over pairs (a, c) of w_a0·x_c − w_c0·x_a − w_c0·x_c,
// each product a dot product at output 0.
func qcircLane1(o *op, x []int16) int64 {
	k, l := o.circ.Grid()
	b := o.circ.BlockSize()
	dot := func(wi, xi int) (d int64) {
		for s := xi * b; s < min((xi+1)*b, len(x)); s++ {
			d += int64(o.qw.Data[wi*l*b+s-xi*b]) * int64(x[s])
		}
		return d
	}
	var lane int64
	for a := 0; a+1 < k; a += 2 {
		lane += dot(a, a+1) - dot(a+1, a) - dot(a+1, a+1)
	}
	return lane
}

// skipWhereFused skips a bit pin on the targets where the compiler may fuse
// x*y+z into one rounding: arm64, ppc64, ppc64le, riscv64, s390x and
// loong64. Elsewhere (amd64, with or without FMA hardware, and 386) every
// product and sum is rounded on its own, so the pinned bits hold; the
// batch-invariance, homogeneity and TestQCircExact tests run everywhere.
func skipWhereFused(t *testing.T) {
	switch runtime.GOARCH {
	case "arm64", "ppc64", "ppc64le", "riscv64", "s390x", "loong64":
		t.Skip("score bits are not pinned where multiply-adds may fuse")
	}
}

// TestInt16GoldenScores pins the fixed-point build's scores across commits:
// FNV-64a over the little-endian Float64bits of a batch-64 Run, recorded at
// the last commit whose integer circulant product was the time-domain MAC.
// The integer accumulators are exact on every architecture (TestQCircExact);
// the float64 epilogue is pinned wherever the compiler keeps the dequantise
// multiply-add unfused (skipWhereFused). Each build also pins the grouping its
// circulant products list: at 8 and 12 bits every layer packs two input
// segments per field word, at 16 bits none does.
func TestInt16GoldenScores(t *testing.T) {
	skipWhereFused(t)
	for _, tc := range []struct {
		name  string
		build func(*rand.Rand) *nn.Network
		in    int
		bits  int
		group string
		want  uint64
	}{
		{"arch1 q12", nn.Arch1, 256, 12, "2seg/word", 0x2edfb52d28affd5b},
		{"arch2 q12", nn.Arch2, 121, 12, "2seg/word", 0x796937148a1c5fc5},
		{"arch1 q16", nn.Arch1, 256, 16, "1seg/word", 0x7688ac048d378fd2},
		{"arch2 q8", nn.Arch2, 121, 8, "2seg/word", 0x347f47ed5c644ddb},
	} {
		rng := rand.New(rand.NewSource(7))
		prog, err := Compile(tc.build(rng), CompileOptions{InShape: []int{tc.in}, Backend: Int16Spectral(tc.bits, tc.bits)})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range prog.Ops() {
			if o.Kind == KindBlockCircMul && !strings.HasSuffix(o.Detail, ","+tc.group) {
				t.Errorf("%s: %s, want %s", tc.name, o, tc.group)
			}
		}
		if got := scoreChecksum(prog.Run(tensor.New(64, tc.in).Randn(rng, 1))); got != tc.want {
			t.Errorf("%s: score checksum %#x, want %#x — the fixed-point build's answers changed", tc.name, got, tc.want)
		}
	}
}

// scoreChecksum is FNV-64a over the little-endian Float64bits of a score
// tensor: the golden tests' fingerprint of "every bit of every score".
func scoreChecksum(scores *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range scores.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFloatGoldenScores pins the float build's scores across commits the
// way TestInt16GoldenScores pins the fixed-point build's: a Run of Arch-1
// and Arch-2 at unit input scale and with the inputs scaled towards the
// bottom of the exponent range, where a factor that is not an exact power
// of two anywhere between the weight table and the store would show. Batch
// 64 takes the parallel arm. Batch 1 compiled with BatchHint 1 is the edge
// deployment's schedule: the serial arm, at 4 input and 2 output columns in
// the first layer and 2 and 2 in the second. Batch 3 runs three times as
// many. The batch-64 values were recorded at the last commit whose engine
// inverse-transformed one output block at a time over an [i][j][t] weight
// table with the 0.5 and 1/n factors inside the transforms; the batch-1 and
// batch-3 values at the last commit whose engine ran its row sweeps in Go
// alone. Arch-3 at batch 1 adds the convolutions, whose im2col products run
// tensor.MatMulInto; its values were recorded at the last commit whose
// dense product, pack and store were Go loops. Skipped where multiply-adds
// may fuse (skipWhereFused).
func TestFloatGoldenScores(t *testing.T) {
	skipWhereFused(t)
	for _, tc := range []struct {
		name  string
		build func(*rand.Rand) *nn.Network
		in    []int
		batch int
		want  [3]uint64 // inputs × 1, × 1e-150, × 1e-300
	}{
		{"arch1", nn.Arch1, []int{256}, 64, [3]uint64{0xcaf78a11c3034443, 0xd46dceb4fd9dcb25, 0xc1378ac52cfc20e6}},
		{"arch2", nn.Arch2, []int{121}, 64, [3]uint64{0x58a1093caf3fd601, 0x34b48ffcd9c6be85, 0x631c853e3df90942}},
		{"arch1 b1", nn.Arch1, []int{256}, 1, [3]uint64{0xc7966ad99d483895, 0x4792aacb94bd992e, 0xa19a047c2dc43d93}},
		{"arch2 b1", nn.Arch2, []int{121}, 1, [3]uint64{0x2e1689f6320e73fb, 0x67bc6a5182c2638c, 0xff300da5e95ae7b0}},
		{"arch1 b3", nn.Arch1, []int{256}, 3, [3]uint64{0x5a0269622bbcb87f, 0x04a788224b7dac1f, 0x9b6e391380117e73}},
		{"arch2 b3", nn.Arch2, []int{121}, 3, [3]uint64{0x8edb2222c59e2d44, 0x86171424acf54cb5, 0x6c3e4a7bb39d71ae}},
		{"arch3 b1", nn.Arch3, []int{32, 32, 3}, 1, [3]uint64{0x36ac604f28b71da3, 0x9d900ff5fb6b422d, 0x96ba3c0c614c3623}},
	} {
		rng := rand.New(rand.NewSource(7))
		prog, err := Compile(tc.build(rng), CompileOptions{InShape: tc.in, BatchHint: tc.batch})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(append([]int{tc.batch}, tc.in...)...).Randn(rng, 1)
		for i, scale := range []float64{1, 1e-150, 1e-300} {
			xs := x.Clone()
			for j := range xs.Data {
				xs.Data[j] *= scale
			}
			if got := scoreChecksum(prog.Run(xs)); got != tc.want[i] {
				t.Errorf("%s, inputs × %g: score checksum %#x, want %#x — the float build's answers changed", tc.name, scale, got, tc.want[i])
			}
		}
	}
}

// TestNonFiniteRowsAnswerNaN: a sample holding a NaN or an infinite feature
// is answered with NaN scores on both builds, and its neighbours in the
// batch are answered as if it were not there. The fixed-point build used to
// convert int16(NaN) — implementation-defined — and returned confident
// finite scores for a NaN feature and all-zero accumulators for an infinite
// one.
func TestNonFiniteRowsAnswerNaN(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend Backend
	}{
		{"float64split", Float64Split()},
		{"int16spectral", Int16Spectral(12, 12)},
	} {
		rng := rand.New(rand.NewSource(41))
		net := nn.NewNetwork(
			nn.NewCircDense(256, 128, 64, rng),
			nn.NewReLU(),
			nn.NewCircDense(128, 60, 12, rng),
			nn.NewReLU(),
			nn.NewDense(60, 10, rng),
			nn.NewSoftmax(),
		)
		prog, err := Compile(net, CompileOptions{InShape: []int{256}, Backend: tc.backend})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(5, 256).Randn(rng, 1)
		x.Row(1)[17] = math.NaN()
		x.Row(2)[200] = math.Inf(1)
		x.Row(3)[0] = math.Inf(-1)
		out := append([]float64(nil), prog.Run(x).Data...)
		for _, v := range []int{1, 2, 3} {
			for j, s := range out[v*10 : (v+1)*10] {
				if !math.IsNaN(s) {
					t.Errorf("%s: non-finite sample %d score %d = %v, want NaN", tc.name, v, j, s)
				}
			}
		}
		for _, v := range []int{0, 4} {
			alone := prog.Run(tensor.FromSlice(x.Row(v), 1, 256))
			for j, s := range alone.Data {
				if math.IsNaN(s) || math.Float64bits(s) != math.Float64bits(out[v*10+j]) {
					t.Errorf("%s: clean sample %d score %d = %v beside non-finite rows, %v alone", tc.name, v, j, out[v*10+j], s)
				}
			}
		}
	}
}

// TestInt16ConcurrentCompileRun: replicas of a fixed-point model are
// compiled and run concurrently (model.Replicate recompiles per replica),
// all through the one cached transform plan of their block size. Run under
// -race; every replica must return the same bits.
func TestInt16ConcurrentCompileRun(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Block sizes no other test in the package uses, so the goroutines
	// usually race to create the plans (b = 48 pads to n = 128).
	net := nn.NewNetwork(nn.NewCircDense(1024, 512, 512, rng), nn.NewReLU(), nn.NewCircDense(512, 96, 48, rng))
	x := tensor.New(2, 1024).Randn(rng, 1)
	const replicas = 8
	outs := make([][]float64, replicas)
	var wg sync.WaitGroup
	for g := 0; g < replicas; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := Compile(net, CompileOptions{InShape: []int{1024}, Backend: Int16Spectral(12, 12)})
			if err != nil {
				t.Error(err)
				return
			}
			outs[g] = append([]float64(nil), prog.Run(x).Data...)
		}()
	}
	wg.Wait()
	for g := 1; g < replicas; g++ {
		if len(outs[g]) != len(outs[0]) {
			t.Fatalf("replica %d returned %d scores, replica 0 %d", g, len(outs[g]), len(outs[0]))
		}
		for i := range outs[0] {
			if math.Float64bits(outs[g][i]) != math.Float64bits(outs[0][i]) {
				t.Fatalf("replica %d score %d = %v, replica 0 = %v", g, i, outs[g][i], outs[0][i])
			}
		}
	}
}
