package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/circulant"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// CircConv2D is the paper's block-circulant convolutional layer (§IV-B):
// the filter tensor F ∈ R^{r×r×C×P} is constrained so that, for every kernel
// position (i,j), the C×P channel matrix F(i,j,·,·) is block-circulant.
// Under the im2col reformulation (Fig. 3 and Eqn. 6) the reshaped Cr²×P
// filter matrix is then a stack of r² block-circulant matrices, and the
// product Y = X·F collapses to r² FFT-based transpose mat-vecs per output
// pixel — complexity O(WH·Q log Q) with Q = max(r²C, P) instead of
// O(WH·r²CP).
type CircConv2D struct {
	Geom  tensor.Conv2DGeom
	Block int

	// pos[s] is the C×P block-circulant channel matrix for kernel position
	// s = ki + R·kj, matching Im2Col's segment ordering.
	pos    []*circulant.BlockCirculant
	wParam []*Param
	bParam *Param

	lastX    *tensor.Tensor
	lastCols []*tensor.Tensor
}

// NewCircConv2D creates a block-circulant CONV layer with channel-matrix
// block size b.
func NewCircConv2D(g tensor.Conv2DGeom, block int, rng *rand.Rand) *CircConv2D {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("nn: CircConv2D: %v", err))
	}
	l := &CircConv2D{Geom: g, Block: block}
	n := g.R * g.R
	l.pos = make([]*circulant.BlockCirculant, n)
	l.wParam = make([]*Param, n)
	for s := 0; s < n; s++ {
		w, err := circulant.NewBlockCirculant(g.C, g.P, block)
		if err != nil {
			panic(fmt.Sprintf("nn: CircConv2D: %v", err))
		}
		w.InitRandom(rng)
		// Rescale: Xavier in InitRandom assumed a C×P dense layer; the
		// effective fan-in here is Cr².
		scale := 1.0 / float64(g.R)
		w.Base.ScaleInPlace(scale)
		w.Refresh()
		l.pos[s] = w
		l.wParam[s] = &Param{
			Name:     fmt.Sprintf("w[%d]", s),
			Value:    w.Base,
			Grad:     tensor.New(w.Base.Shape()...),
			OnUpdate: w.Refresh,
		}
	}
	l.bParam = &Param{Name: "theta", Value: tensor.New(g.P), Grad: tensor.New(g.P)}
	return l
}

// Name implements Layer.
func (l *CircConv2D) Name() string {
	return fmt.Sprintf("circconv(%dx%dx%d,r=%d,p=%d,b=%d)",
		l.Geom.H, l.Geom.W, l.Geom.C, l.Geom.R, l.Geom.P, l.Block)
}

// Params implements Layer.
func (l *CircConv2D) Params() []*Param { return append(append([]*Param(nil), l.wParam...), l.bParam) }

// CompressionRatio returns dense/stored parameter counts for the filters.
func (l *CircConv2D) CompressionRatio() float64 {
	dense := float64(l.Geom.R*l.Geom.R) * float64(l.Geom.C) * float64(l.Geom.P)
	stored := 0.0
	for _, w := range l.pos {
		stored += float64(w.NumParams())
	}
	return dense / stored
}

// DenseFilter expands the constrained filters to an explicit [R][R][C][P]
// tensor (used to validate against Conv2DDirect).
func (l *CircConv2D) DenseFilter() *tensor.Tensor {
	g := l.Geom
	f := tensor.New(g.R, g.R, g.C, g.P)
	for ki := 0; ki < g.R; ki++ {
		for kj := 0; kj < g.R; kj++ {
			d := l.pos[ki+g.R*kj].Dense()
			for c := 0; c < g.C; c++ {
				for p := 0; p < g.P; p++ {
					f.Set(d.At(c, p), ki, kj, c, p)
				}
			}
		}
	}
	return f
}

// Forward implements Layer. x is [B, H, W, C]; the result is
// [B, OutH, OutW, P]. Each output pixel is Σ_s pos[s]ᵀ·x_seg(s) + θ, every
// term an FFT-based block-circulant product.
func (l *CircConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.forward(nil, x, train)
}

// ForwardWS implements WorkspaceForwarder: Forward drawing its scratch from
// the caller-owned workspace instead of allocating it per call.
func (l *CircConv2D) ForwardWS(ws *Workspace, x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.forward(ws, x, train)
}

// forward treats the OutH·OutW output pixels of one sample as the natural
// batch they are: per kernel position it gathers every pixel's segment and
// runs one pass of the spectral engine (r² passes per sample, in training
// as in inference) instead of r²·OutH·OutW per-pixel products.
func (l *CircConv2D) forward(ws *Workspace, x *tensor.Tensor, train bool) *tensor.Tensor {
	g := l.Geom
	if x.Rank() != 4 || x.Dim(1) != g.H || x.Dim(2) != g.W || x.Dim(3) != g.C {
		panic(fmt.Sprintf("nn: %s got input shape %v", l.Name(), x.Shape()))
	}
	batch := batchOf(x)
	oh, ow := g.OutH(), g.OutW()
	out := tensor.New(batch, oh, ow, g.P)
	if train {
		l.lastX = x
		l.lastCols = make([]*tensor.Tensor, batch)
	}
	sl := g.H * g.W * g.C
	ol := oh * ow * g.P
	nseg := g.R * g.R
	npix := oh * ow

	if ws == nil {
		// Per-call scratch; its nil BatchWorkspace makes each pass borrow
		// from circulant's pool.
		ws = &Workspace{}
	}
	segs := growFloats(ws.seg, npix*g.C)
	prods := growFloats(ws.prod, npix*g.P)
	ws.seg, ws.prod = segs, prods
	for i := 0; i < batch; i++ {
		img := tensor.FromSlice(x.Data[i*sl:(i+1)*sl], g.H, g.W, g.C)
		cols := tensor.Im2Col(img, g)
		if train {
			l.lastCols[i] = cols
		}
		dst := out.Data[i*ol : (i+1)*ol]
		for r := 0; r < npix; r++ {
			copy(dst[r*g.P:(r+1)*g.P], l.bParam.Value.Data)
		}
		for s := 0; s < nseg; s++ {
			for r := 0; r < npix; r++ {
				copy(segs[r*g.C:(r+1)*g.C], cols.Row(r)[s*g.C:(s+1)*g.C])
			}
			l.pos[s].TransMulBatchInto(prods, segs, npix, ws.batch)
			for t := 0; t < npix*g.P; t++ {
				dst[t] += prods[t]
			}
		}
	}
	return out
}

// Backward implements Layer. Like forward, it treats a sample's OutH·OutW
// output pixels as one batch: per kernel position, one pass of the spectral
// engine (circulant.TransMulBatchGradInto) over the gathered segments
// accumulates that position's weight gradient and yields the segment
// gradients, which Col2Im folds back to image space.
func (l *CircConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastCols == nil {
		panic("nn: CircConv2D.Backward before Forward(train=true)")
	}
	g := l.Geom
	batch := batchOf(grad)
	npix := g.OutH() * g.OutW()
	ol := npix * g.P
	sl := g.H * g.W * g.C
	dx := tensor.New(batch, g.H, g.W, g.C)
	dcols := tensor.New(npix, g.C*g.R*g.R)
	segs := make([]float64, npix*g.C)
	dsegs := make([]float64, npix*g.C)
	for i := 0; i < batch; i++ {
		cols := l.lastCols[i]
		gi := grad.Data[i*ol : (i+1)*ol]
		for s := 0; s < g.R*g.R; s++ {
			for r := 0; r < npix; r++ {
				copy(segs[r*g.C:(r+1)*g.C], cols.Row(r)[s*g.C:(s+1)*g.C])
			}
			l.pos[s].TransMulBatchGradInto(l.wParam[s].Grad.Data, dsegs, segs, gi, npix, nil)
			for r := 0; r < npix; r++ {
				copy(dcols.Row(r)[s*g.C:(s+1)*g.C], dsegs[r*g.C:(r+1)*g.C])
			}
		}
		for r := 0; r < npix; r++ {
			for p, v := range gi[r*g.P : (r+1)*g.P] {
				l.bParam.Grad.Data[p] += v
			}
		}
		dimg := tensor.Col2Im(dcols, g)
		copy(dx.Data[i*sl:(i+1)*sl], dimg.Data)
	}
	return dx
}

// CountOps implements Layer: per sample, OutH·OutW output pixels each costing
// r² FFT-based block-circulant products — the paper's O(WH·Q log Q) CONV
// complexity.
func (l *CircConv2D) CountOps(c *ops.Counts) {
	g := l.Geom
	rows := int64(g.OutH()) * int64(g.OutW())
	per := l.pos[0].MulVecOps()
	var pixel ops.Counts
	for s := 0; s < g.R*g.R; s++ {
		pixel.Add(per)
		pixel.Add(ops.Counts{RealAdd: int64(g.P)}) // accumulate into output
	}
	c.Add(pixel.Scale(rows))
	// im2col gather traffic.
	kc := int64(g.C) * int64(g.R) * int64(g.R)
	c.Add(ops.Counts{MemRead: 8 * rows * kc, MemWrite: 8 * rows * kc})
	c.APICalls++
}
