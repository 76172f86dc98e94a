// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus the ablation benches called out in DESIGN.md §6.
//
// Latency cells are reported through b.ReportMetric as "modelUS" (the
// embedded-platform model's µs/image for that cell, the quantity the paper's
// tables print) alongside the conventional ns/op of the real Go computation
// on the host. Accuracy-bearing benches train once with the quick
// configuration and report "acc%".
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circulant"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/nn"
	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/program"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/vector"
)

// Trained results are shared across benches (training once, quick config).
var (
	trainOnce sync.Once
	resArch1  experiments.Result
	resArch2  experiments.Result
	resArch3  experiments.Result
)

func trainedResults() (r1, r2, r3 experiments.Result) {
	trainOnce.Do(func() {
		resArch1 = experiments.TrainMNISTArch(1, experiments.QuickMNISTConfig())
		resArch2 = experiments.TrainMNISTArch(2, experiments.QuickMNISTConfig())
		resArch3 = experiments.TrainCIFAR(experiments.QuickCIFARConfig())
	})
	return resArch1, resArch2, resArch3
}

// BenchmarkTableI_PlatformRegistry regenerates Table I (platform specs).
func BenchmarkTableI_PlatformRegistry(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = platform.TableI()
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
	b.ReportMetric(float64(len(platform.Platforms())), "devices")
}

// BenchmarkTableII_MNIST regenerates every cell of Table II: per
// (architecture, runtime, device) it measures real host inference and
// reports the modelled device latency and measured accuracy.
func BenchmarkTableII_MNIST(b *testing.B) {
	r1, r2, _ := trainedResults()
	for _, row := range []struct {
		name string
		res  experiments.Result
		in   int
	}{{"Arch1", r1, 256}, {"Arch2", r2, 121}} {
		x := tensor.New(1, row.in)
		x.Fill(0.5)
		for _, env := range []platform.Env{platform.EnvJava, platform.EnvCPP} {
			for _, spec := range platform.Platforms() {
				name := fmt.Sprintf("%s/%s/%s", row.name, env, short(spec.Name))
				cfg := platform.Config{Spec: spec, Env: env}
				us := cfg.EstimateUS(row.res.Counts)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						row.res.Net.Forward(x, false)
					}
					b.ReportMetric(us, "modelUS")
					b.ReportMetric(row.res.Accuracy*100, "acc%")
				})
			}
		}
	}
}

// BenchmarkTableIII_CIFAR10 regenerates Table III (Arch-3 on XU3 and
// Honor 6X): real host inference through the full Arch-3 plus the modelled
// device latencies.
func BenchmarkTableIII_CIFAR10(b *testing.B) {
	_, _, r3 := trainedResults()
	net := nn.Arch3(rand.New(rand.NewSource(1)))
	img := dataset.SyntheticCIFAR(1, 1).X
	for _, env := range []platform.Env{platform.EnvJava, platform.EnvCPP} {
		for _, spec := range platform.Platforms()[1:] {
			name := fmt.Sprintf("Arch3/%s/%s", env, short(spec.Name))
			cfg := platform.Config{Spec: spec, Env: env}
			us := cfg.EstimateUS(r3.Counts)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					net.Forward(img, false)
				}
				b.ReportMetric(us, "modelUS")
				b.ReportMetric(r3.Accuracy*100, "acc%")
			})
		}
	}
}

// BenchmarkFig1_FFTScaling demonstrates the Cooley–Tukey O(n log n) scaling
// of Fig. 1: ns/op across transform sizes, with the normalised constant
// ns/(n·log2 n) reported so the flatness of the series is visible.
func BenchmarkFig1_FFTScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		buf := make([]complex128, n)
		p := fft.PlanFor(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Forward(buf, x)
			}
			logn := 0
			for v := 1; v < n; v <<= 1 {
				logn++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*logn), "ns/(nlogn)")
		})
	}
}

// BenchmarkFig2_CirculantMatvec reproduces the Fig. 2 procedure experiment:
// the circulant product via FFT→∘→IFFT versus the direct O(n²) product, with
// the speedup reported per size.
func BenchmarkFig2_CirculantMatvec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{64, 256, 1024} {
		w := make([]float64, n)
		x := make([]float64, n)
		for i := range w {
			w[i], x[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		c := circulant.NewCirculant(w)
		b.Run(fmt.Sprintf("fft/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MulVec(x)
			}
		})
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MulVecDirect(x)
			}
		})
	}
}

// BenchmarkFig3_Im2colConv reproduces the Fig. 3 reformulation: direct
// tensor convolution versus im2col + matrix multiplication on an Arch-3
// layer shape.
func BenchmarkFig3_Im2colConv(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := tensor.Conv2DGeom{H: 14, W: 14, C: 64, R: 3, P: 128, Stride: 1}
	img := tensor.New(g.H, g.W, g.C).Randn(rng, 1)
	filt := tensor.New(g.R, g.R, g.C, g.P).Randn(rng, 1)
	fm := tensor.FilterToMatrix(filt, g)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.Conv2DDirect(img, filt, g)
		}
	})
	b.Run("im2col", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cols := tensor.Im2Col(img, g)
			tensor.MatMul(cols, fm)
		}
	})
}

// BenchmarkFig4_EnginePipeline times the four-module deployment pipeline of
// Fig. 4 end to end: parse architecture, load parameters, load inputs,
// predict — all from in-memory files.
func BenchmarkFig4_EnginePipeline(b *testing.B) {
	r2 := func() experiments.Result { _, r, _ := trainedResults(); return r }()
	var params bytes.Buffer
	if err := engine.SaveParameters(&params, r2.Net); err != nil {
		b.Fatal(err)
	}
	testset := dataset.Resize(dataset.SyntheticMNIST(50, 5), 11, 11)
	var imgs, labels bytes.Buffer
	if err := dataset.WriteIDXImages(&imgs, testset); err != nil {
		b.Fatal(err)
	}
	if err := dataset.WriteIDXLabels(&labels, testset); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := engine.ParseArchitecture(bytes.NewReader([]byte(engine.Arch2Text)), rand.New(rand.NewSource(0)))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.LoadParameters(bytes.NewReader(params.Bytes())); err != nil {
			b.Fatal(err)
		}
		d, err := e.LoadInputs(bytes.NewReader(imgs.Bytes()), bytes.NewReader(labels.Bytes()), 1)
		if err != nil {
			b.Fatal(err)
		}
		acc, err := e.Evaluate(d)
		if err != nil {
			b.Fatal(err)
		}
		if acc < 0.5 {
			b.Fatalf("pipeline accuracy collapsed: %f", acc)
		}
	}
}

// BenchmarkFig5_AccuracyVsLatency regenerates the Fig. 5 scatter series:
// our method's best-device C++ points and the published TrueNorth points,
// reported as metrics per sub-bench.
func BenchmarkFig5_AccuracyVsLatency(b *testing.B) {
	r1, _, r3 := trainedResults()
	for _, p := range experiments.Fig5(r1, r3) {
		p := p
		b.Run(fmt.Sprintf("%s/%s", short(p.System), p.Dataset), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = experiments.Fig5(r1, r3)
			}
			b.ReportMetric(p.USPerImg, "modelUS")
			b.ReportMetric(p.Accuracy, "acc%")
		})
	}
}

// BenchmarkConvComplexity checks the paper's CONV complexity claim
// O(WHr²CP) → O(WHQ log Q): modelled flops of dense versus block-circulant
// CONV layers as channel width grows.
func BenchmarkConvComplexity(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, ch := range []int{32, 64, 128} {
		g := tensor.Conv2DGeom{H: 12, W: 12, C: ch, R: 3, P: ch, Stride: 1}
		x := tensor.New(1, g.H, g.W, g.C).Randn(rng, 0.5)
		dense := nn.NewConv2D(g, rng)
		circ := nn.NewCircConv2D(g, min(64, ch), rng)
		b.Run(fmt.Sprintf("dense/c=%d", ch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dense.Forward(x, false)
			}
			report(b, dense)
		})
		b.Run(fmt.Sprintf("circ/c=%d", ch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				circ.Forward(x, false)
			}
			report(b, circ)
		})
	}
}

// BenchmarkAblationSpectralCache quantifies the paper's "store FFT(wᵢ)"
// optimisation: transpose products with cached spectra versus re-deriving
// the spectra on every product (what a naive implementation does).
func BenchmarkAblationSpectralCache(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := circulant.MustNewBlockCirculant(512, 512, 64).InitRandom(rng)
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.TransMulVec(x)
		}
	})
	b.Run("refreshEveryCall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Refresh()
			m.TransMulVec(x)
		}
	})
}

// BenchmarkAblationBlockSize sweeps the block size on a fixed 512×512 FC
// weight: larger blocks mean fewer, larger FFTs and higher compression.
func BenchmarkAblationBlockSize(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, block := range []int{16, 32, 64, 128, 256} {
		m := circulant.MustNewBlockCirculant(512, 512, block).InitRandom(rng)
		b.Run(fmt.Sprintf("b=%d", block), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.TransMulVec(x)
			}
			b.ReportMetric(m.CompressionRatio(), "compression")
			b.ReportMetric(m.MulVecOps().Flops(), "modelFlops")
		})
	}
}

// BenchmarkAblationAccumulateSpectral compares the implemented
// spectral-domain accumulation (one IFFT per output block) against the
// naive per-block-pair IFFT the paper's Algorithm 1 pseudo-code implies.
func BenchmarkAblationAccumulateSpectral(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n, block = 512, 64
	m := circulant.MustNewBlockCirculant(n, n, block).InitRandom(rng)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.Run("accumulateSpectral", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.TransMulVec(x)
		}
	})
	// Naive: k·l independent circulant products, each with its own IFFT.
	k := n / block
	blocks := make([][]*circulant.Circulant, k)
	dense := m.Dense()
	for i := 0; i < k; i++ {
		blocks[i] = make([]*circulant.Circulant, k)
		for j := 0; j < k; j++ {
			base := make([]float64, block)
			for t := 0; t < block; t++ {
				base[t] = dense.At(i*block+t, j*block)
			}
			blocks[i][j] = circulant.NewCirculant(base)
		}
	}
	b.Run("ifftPerBlockPair", func(b *testing.B) {
		out := make([]float64, n)
		for it := 0; it < b.N; it++ {
			for t := range out {
				out[t] = 0
			}
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					y := blocks[i][j].TransMulVec(x[i*block : (i+1)*block])
					for t := 0; t < block; t++ {
						out[j*block+t] += y[t]
					}
				}
			}
		}
	})
}

// BenchmarkAblationRealFFT compares the half-spectrum real transform used
// for weight storage against the full complex transform.
func BenchmarkAblationRealFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.Run("rfftHalfSpectrum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fft.RFFT(x)
		}
	})
	b.Run("fullComplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fft.FFTReal(x)
		}
	})
}

// BenchmarkAblationFixedPoint compares float64 dense inference against the
// Q-format fixed-point path of internal/quant.
func BenchmarkAblationFixedPoint(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	d := nn.NewDense(256, 128, rng)
	fp, err := quant.NewFixedPointDense(d, 12, 12)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(1, 256).Randn(rng, 1)
	b.Run("float64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Forward(x, false)
		}
	})
	b.Run("fixedQ12", func(b *testing.B) {
		row := x.Row(0)
		for i := 0; i < b.N; i++ {
			if _, err := fp.Forward(row); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselineStructuredMatrices compares the related-work structured
// FC weights on one 512×512 mat-vec: dense (uncompressed), Toeplitz
// (Sindhwani [18], 2n−1 params), full circulant (Cheng [19], n params) and
// the paper's block-circulant middle ground.
func BenchmarkBaselineStructuredMatrices(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const n = 512
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dense := tensor.New(n, n).Randn(rng, 1)
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatVec(dense, x)
		}
		b.ReportMetric(float64(n*n), "params")
	})
	diag := make([]float64, 2*n-1)
	for i := range diag {
		diag[i] = rng.NormFloat64()
	}
	toep, err := circulant.NewToeplitz(diag)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("toeplitz", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			toep.MulVec(x)
		}
		b.ReportMetric(float64(toep.NumParams()), "params")
	})
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	circ := circulant.NewCirculant(base)
	b.Run("circulant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			circ.MulVec(x)
		}
		b.ReportMetric(float64(n), "params")
	})
	blk := circulant.MustNewBlockCirculant(n, n, 64).InitRandom(rng)
	b.Run("blockCirculant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blk.MulVec(x)
		}
		b.ReportMetric(float64(blk.NumParams()), "params")
	})
}

// BenchmarkBaselinePruning makes the paper's §I argument executable: at
// *equal compression* (64×), a magnitude-pruned CSR mat-vec (Deep
// Compression [6], irregular gathers) versus the paper's block-circulant
// FFT mat-vec (regular dataflow), on a 512×512 FC weight.
func BenchmarkBaselinePruning(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	const n = 512
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dense := tensor.New(n, n).Randn(rng, 1)
	// 64× compression ⇒ keep 1/64 of entries.
	th := prune.ThresholdForSparsity(dense, 1-1.0/64)
	csr := prune.FromDense(dense, th)
	blk := circulant.MustNewBlockCirculant(n, n, 64).InitRandom(rng)
	b.Run("prunedCSR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csr.MulVec(x)
		}
		b.ReportMetric(float64(csr.NNZ()), "params")
		b.ReportMetric(csr.MulVecOps().Flops(), "modelFlops")
	})
	b.Run("blockCirculant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blk.MulVec(x)
		}
		b.ReportMetric(float64(blk.NumParams()), "params")
		b.ReportMetric(blk.MulVecOps().Flops(), "modelFlops")
	})
}

// BenchmarkBaselineConvPaths compares the three CONV execution strategies of
// the paper's related work on an Arch-3-shaped layer: im2col (conventional),
// frequency-domain [11] (fast, uncompressed), and block-circulant (fast and
// compressed).
func BenchmarkBaselineConvPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	g := tensor.Conv2DGeom{H: 14, W: 14, C: 64, R: 3, P: 128, Stride: 1}
	x := tensor.New(1, g.H, g.W, g.C).Randn(rng, 0.5)
	conv := nn.NewConv2D(g, rng)
	fconv, err := nn.NewFFTConv2D(g, rng)
	if err != nil {
		b.Fatal(err)
	}
	cconv := nn.NewCircConv2D(g, 64, rng)
	for _, row := range []struct {
		name  string
		layer nn.Layer
	}{{"im2col", conv}, {"fftconv", fconv}, {"circconv", cconv}} {
		row.layer.Forward(x, false)
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row.layer.Forward(x, false)
			}
			report(b, row.layer)
		})
	}
}

// BenchmarkTraining measures one spectral-gradient training step (Algorithm
// 2) of Arch-1 against the dense-baseline step.
func BenchmarkTraining(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.New(16, 256).Randn(rng, 0.5)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 10
	}
	loss := nn.SoftmaxCrossEntropy{}
	b.Run("circulantArch1", func(b *testing.B) {
		net := nn.Arch1(rng)
		opt := nn.NewSGD(0.01, 0.9)
		for i := 0; i < b.N; i++ {
			net.TrainBatch(x, labels, loss, opt)
		}
	})
	b.Run("denseArch1", func(b *testing.B) {
		net := nn.Arch1Dense(rng)
		opt := nn.NewSGD(0.01, 0.9)
		for i := 0; i < b.N; i++ {
			net.TrainBatch(x, labels, loss, opt)
		}
	})
}

// BenchmarkBatchedSpectralForward is the spectral engine's batching
// benchmark: a coalesced batch of B vectors through one block-circulant
// weight as B passes of the engine at batch 1 (perVector: what serving pays
// when nothing coalesces) versus one pass over the whole batch (batched:
// transforms swept bin-major over every column of the batch, column-range
// parallelism). Same engine, same bits per vector (batch_test.go asserts
// it); the "vec/s" metric reports vectors retired per second, so the ratio
// is what coalescing buys. On this 512×512 layer (8 + 8 block columns per
// vector — a lone vector already fills the sweeps) that is ≈ 1.0 on the
// 2-vCPU bench host; it was ≈ 1.7–2.5 while the output side transformed one
// block at a time, a tax the engine imposed on itself at batch 1.
func BenchmarkBatchedSpectralForward(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	const n = 512
	m := circulant.MustNewBlockCirculant(n, n, 64).InitRandom(rng)
	for _, batch := range []int{16, 64} {
		x := make([]float64, batch*n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		dst := make([]float64, batch*n)
		b.Run(fmt.Sprintf("perVector/batch=%d", batch), func(b *testing.B) {
			ws := circulant.NewBatchWorkspace()
			m.TransMulBatchInto(dst[:n], x[:n], 1, ws) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for v := 0; v < batch; v++ {
					m.TransMulBatchInto(dst[v*n:(v+1)*n], x[v*n:(v+1)*n], 1, ws)
				}
			}
			b.ReportMetric(float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "vec/s")
		})
		b.Run(fmt.Sprintf("batched/batch=%d", batch), func(b *testing.B) {
			ws := circulant.NewBatchWorkspace()
			m.TransMulBatchInto(dst, x, batch, ws) // warm: size the workspace once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TransMulBatchInto(dst, x, batch, ws)
			}
			b.ReportMetric(float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "vec/s")
		})
	}
	// The same comparison at the network level: Arch-1's forward pass on a
	// 16-sample batch, per-sample versus one batched spectral pass.
	net := nn.Arch1(rng)
	const features, batch = 256, 16
	xb := tensor.New(batch, features).Randn(rng, 1)
	b.Run("arch1PerSample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for v := 0; v < batch; v++ {
				net.Forward(tensor.FromSlice(xb.Row(v), 1, features), false)
			}
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "vec/s")
	})
	// arch1Batched is the serving-path number: since the compiled-program
	// redesign, model.New executes batches through a compiled
	// Float64Split program (the fused spectral kernels this benchmark
	// always measured, now scheduled by the compiler's fusion pass), so
	// the compiled path is what this sub-benchmark drives. The
	// interpreted oracle (ForwardWS, unfused) is measured alongside.
	b.Run("arch1Batched", func(b *testing.B) {
		prog, err := program.Compile(net, program.CompileOptions{InShape: []int{features}, BatchHint: batch})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prog.Run(xb)
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "vec/s")
	})
	b.Run("arch1Interpreted", func(b *testing.B) {
		ws := nn.NewWorkspace()
		net.ForwardWS(ws, xb, false) // warm the arena and FFT scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.ForwardWS(ws, xb, false)
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "vec/s")
	})
}

// BenchmarkCompiledForward measures compiled Float64Split programs on the
// two FC evaluation architectures at batch 1 and a serving batch — the
// executor model.New hands every serving replica. Each run takes the next
// of a pool of distinct inputs, as the edge workloads of `go run ./bench`
// do, so a cost that follows the data (the dense layer's skip of zero
// activations) is paid as it is in service rather than learned by the
// branch predictor on one repeated input. Warm runs are allocation-free
// (pinned by TestCompiledForwardZeroAlloc).
func BenchmarkCompiledForward(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	archs := []struct {
		name    string
		net     *nn.Network
		inShape []int
	}{
		{"arch1", nn.Arch1(rng), []int{256}},
		{"arch2", nn.Arch2(rng), []int{121}},
	}
	for _, a := range archs {
		for _, batch := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/batch=%d", a.name, batch), func(b *testing.B) {
				prog, err := program.Compile(a.net, program.CompileOptions{InShape: a.inShape, BatchHint: batch})
				if err != nil {
					b.Fatal(err)
				}
				xs := make([]*tensor.Tensor, 512/batch)
				for i := range xs {
					xs[i] = tensor.New(append([]int{batch}, a.inShape...)...).Randn(rng, 1)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					prog.Run(xs[i%len(xs)])
				}
				b.ReportMetric(float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "vec/s")
			})
		}
	}
}

// BenchmarkQuantizedForward measures the Int16Spectral backend — the
// paper's embedded fixed-point deployment generalised to block-circulant
// layers and whole batches — on Arch-1, beside BenchmarkCompiledForward's
// float path. The integer path runs the same transform → bin product →
// inverse schedule over an exact number-theoretic transform, whose 64-bit
// modular butterflies cost more than float64 ones on a desktop host; where
// the layer's range allows (every layer here) it packs two input segments
// into each field word, halving the forward transforms and bin products,
// while the float engine amortises its transforms across the batch
// (measured ratios: DESIGN.md §5). Its end-to-end record is the
// edge_fixed_b1 workload of `go run ./bench`, and TestCompiledForwardZeroAlloc
// keeps its warm runs allocation-free.
func BenchmarkQuantizedForward(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	net := nn.Arch1(rng)
	for _, bits := range []int{8, 12} {
		for _, batch := range []int{1, 16} {
			b.Run(fmt.Sprintf("q%d/batch=%d", bits, batch), func(b *testing.B) {
				prog, err := program.Compile(net, program.CompileOptions{
					InShape:   []int{256},
					Backend:   program.Int16Spectral(bits, bits),
					BatchHint: batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				x := tensor.New(batch, 256).Randn(rng, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					prog.Run(x)
				}
				b.ReportMetric(float64(b.N)*float64(batch)/b.Elapsed().Seconds(), "vec/s")
			})
		}
	}
}

// BenchmarkVectorSearch measures the top-k engine over a 4096-vector
// clustered corpus (dim 64, k=10): exact brute force against the IVF ANN
// index (32 lists, nprobe 4), float32 kernels against the int8 quantised
// mirror. Warm SearchInto through a reused Searcher is allocation-free on
// every variant, pinned by the CI alloc gate.
func BenchmarkVectorSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	const n, dim, clusters = 4096, 64, 32
	centers := make([][]float32, clusters)
	for i := range centers {
		centers[i] = make([]float32, dim)
		for j := range centers[i] {
			centers[i][j] = float32(rng.NormFloat64()) * 4
		}
	}
	data := make([][]float32, n)
	ids := make([]string, n)
	for i := range data {
		c := centers[i%clusters]
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = c[j] + float32(rng.NormFloat64())
		}
		ids[i] = fmt.Sprintf("v%05d", i)
	}
	s := vector.NewStore()
	col, err := s.Ensure("bench", dim)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := col.Upsert(ids, data); err != nil {
		b.Fatal(err)
	}
	if err := col.TrainANN(clusters, 1); err != nil {
		b.Fatal(err)
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = centers[3][j] + float32(rng.NormFloat64())
	}
	for _, tc := range []struct {
		name string
		opt  vector.SearchOptions
	}{
		{"brute/float32", vector.SearchOptions{}},
		{"brute/int8", vector.SearchOptions{Quantized: true}},
		{"ann/float32", vector.SearchOptions{NProbe: 4}},
		{"ann/int8", vector.SearchOptions{NProbe: 4, Quantized: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var sc vector.Searcher
			dst := make([]vector.Result, 0, 10)
			dst, err := col.SearchInto(dst, &sc, q, 10, tc.opt) // warm
			if err != nil || len(dst) != 10 {
				b.Fatalf("warm search: %d results, err %v", len(dst), err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = col.SearchInto(dst, &sc, q, 10, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mvec/s")
		})
	}
}

func report(b *testing.B, l nn.Layer) {
	var c ops.Counts
	l.CountOps(&c)
	b.ReportMetric(c.Flops(), "modelFlops")
}

func short(name string) string {
	switch name {
	case "LG Nexus 5":
		return "Nexus5"
	case "Odroid XU3":
		return "XU3"
	case "Huawei Honor 6X":
		return "Honor6X"
	case "IBM TrueNorth":
		return "TrueNorth"
	case "Our Method":
		return "Ours"
	}
	return name
}
