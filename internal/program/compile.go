package program

import (
	"errors"
	"fmt"

	"repro/internal/circulant"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// CompileOptions parameterises Compile.
type CompileOptions struct {
	// InShape is the per-sample input shape, e.g. [256] or [32 32 3].
	// Required.
	InShape []int
	// Backend selects the kernel set; nil means Float64Split.
	Backend Backend
	// BatchHint pre-sizes the execution arena for the given batch so the
	// first Run at that batch is already allocation-free. Zero leaves
	// sizing to the first Run (the arena grows to the largest batch seen
	// and is retained).
	BatchHint int
	// TapPenultimate truncates the lowered chain just before its final
	// product op (the classifier head), so the compiled program returns
	// the penultimate-layer activation — the network's natural embedding —
	// instead of class scores. The surviving chain still runs the full
	// pass pipeline, so the embedding path gets the same fusion, dead-op
	// elimination and arena planning as the scoring path.
	TapPenultimate bool
}

// Program is a compiled inference program: the typed op graph bound to a
// backend plus the execution state (float ping-pong arena, integer
// scratch, FFT batch workspace) it runs in. A Program is single-threaded
// like nn.Workspace — give each serving replica its own — and holds
// references to the source network's float parameters, so float-backend
// programs track later weight updates exactly like the interpreted path
// (integer backends snapshot quantised weights at compile time).
type Program struct {
	backend Backend
	ops     []op

	inShape []int
	inDim   int
	outDim  int

	// Execution state (planArena / ensure).
	farena  [2][]float64 // ping-pong float activation arena
	fmax    [2]int       // per-sample capacity each float slot must hold
	qx      []int16      // quantised activations (KindQuantize output)
	qxMax   int
	qacc    []int64 // integer accumulators (quantised product output)
	qaccMax int
	qscale  []float64 // per-sample activation scales of the last Quantize
	qntt    []uint64  // one sample's transform-domain scratch (execQCirc)
	qnttMax int

	bws    *circulant.BatchWorkspace // spectral scratch for typed circ ops
	fws    *nn.Workspace             // scratch for KindLayer fallbacks
	inT    tensor.Tensor             // input rebind header
	inDims []int                     // canonical input dims with batch placeholder
}

// InShape returns the per-sample input shape. Callers must not mutate it.
func (p *Program) InShape() []int { return p.inShape }

// InDim returns the flattened per-sample input length.
func (p *Program) InDim() int { return p.inDim }

// OutDim returns the per-sample output width.
func (p *Program) OutDim() int { return p.outDim }

// BackendName returns the bound backend's name.
func (p *Program) BackendName() string { return p.backend.Name() }

// Compile lowers a trained network into a typed op graph, runs the pass
// pipeline — static shape inference, epilogue fusion, dead-op
// elimination — binds the graph to opts.Backend and plans the execution
// arena. Shape mismatches between layers surface here as errors instead
// of panics in a serving worker.
func Compile(net *nn.Network, opts CompileOptions) (*Program, error) {
	if net == nil {
		return nil, errors.New("program: nil network")
	}
	if len(net.Layers) == 0 {
		return nil, errors.New("program: empty network")
	}
	if len(opts.InShape) == 0 {
		return nil, errors.New("program: CompileOptions.InShape is required")
	}
	for _, d := range opts.InShape {
		if d < 1 {
			return nil, fmt.Errorf("program: non-positive input dimension in %v", opts.InShape)
		}
	}
	backend := opts.Backend
	if backend == nil {
		backend = Float64Split()
	}
	p := &Program{
		backend: backend,
		inShape: append([]int(nil), opts.InShape...),
		inDim:   flatLen(opts.InShape),
	}
	p.lower(net)
	if opts.TapPenultimate {
		if err := p.tapPenultimate(); err != nil {
			return nil, err
		}
	}
	if err := p.inferShapes(); err != nil {
		return nil, err
	}
	p.fuseEpilogues()
	p.eliminateDead()
	if err := backend.lower(p); err != nil {
		return nil, err
	}
	p.eliminateDead() // sweep ops orphaned by the backend rewrite
	if err := p.planArena(); err != nil {
		return nil, err
	}
	if opts.BatchHint > 0 {
		// One zero forward at the hinted batch warms every arena and the
		// spectral workspaces, so the program's first real Run at (or
		// below) that batch is already allocation-free.
		p.Run(tensor.New(append([]int{opts.BatchHint}, p.inShape...)...))
	}
	return p, nil
}

// lower emits the initial op chain from the layer stack. Every op writes
// a fresh value id; epilogues (bias, rectifier) are emitted as separate
// ops so the fusion pass — not per-layer special cases — decides what the
// kernels absorb.
func (p *Program) lower(net *nn.Network) {
	next := 1 // value 0 is the program input
	emit := func(o op) {
		o.in = next - 1
		o.out = next
		next++
		p.ops = append(p.ops, o)
	}
	for _, l := range net.Layers {
		switch l := l.(type) {
		case *nn.CircDense:
			emit(op{kind: KindBlockCircMul, circ: l.W})
			emit(op{kind: KindBiasAdd, bias: l.Bias()})
		case *nn.Dense:
			emit(op{kind: KindMatMul, w: l.Weight()})
			emit(op{kind: KindBiasAdd, bias: l.Bias()})
		case *nn.ReLU:
			emit(op{kind: KindReLU})
		case *nn.Softmax:
			emit(op{kind: KindSoftmax})
		case *nn.Flatten:
			emit(op{kind: KindPack})
		case *nn.Dropout:
			// Identity at inference: lowered to nothing.
		default:
			emit(op{kind: KindLayer, layer: l})
		}
	}
}

// tapPenultimate cuts the freshly lowered chain just before its last
// product op — the classifier head and its epilogue — leaving a program
// whose output is the penultimate activation. The cut happens before
// shape inference, so the truncated chain is validated (including the
// flat-output requirement) exactly like a full program.
func (p *Program) tapPenultimate() error {
	last := -1
	for i := range p.ops {
		switch p.ops[i].kind {
		case KindBlockCircMul, KindMatMul:
			last = i
		}
	}
	if last < 0 {
		return errors.New("program: TapPenultimate needs a product op to cut before")
	}
	if last == 0 {
		return errors.New("program: TapPenultimate on a single-product network leaves nothing to run")
	}
	p.ops = p.ops[:last]
	return nil
}

// inferShapes is the static shape-inference pass: per-sample shapes
// propagate from the program input through every op, and each typed op
// validates its operand against its payload. KindLayer fallbacks are
// probed with a one-sample zero forward (compile-time only), converting
// the layers' shape panics into errors here.
func (p *Program) inferShapes() error {
	shape := p.inShape
	for i := range p.ops {
		o := &p.ops[i]
		o.inShape = append([]int(nil), shape...)
		flat := flatLen(shape)
		switch o.kind {
		case KindBlockCircMul:
			if len(shape) != 1 {
				return fmt.Errorf("program: op %d %s needs a flat input, got shape %v", i, o.kind, shape)
			}
			if flat != o.circ.Rows() {
				return fmt.Errorf("program: op %d %s input length %d, weight needs %d", i, o.kind, flat, o.circ.Rows())
			}
			o.outShape = []int{o.circ.Cols()}
		case KindMatMul:
			if len(shape) != 1 {
				return fmt.Errorf("program: op %d %s needs a flat input, got shape %v", i, o.kind, shape)
			}
			if flat != o.w.Dim(0) {
				return fmt.Errorf("program: op %d %s input length %d, weight needs %d", i, o.kind, flat, o.w.Dim(0))
			}
			o.outShape = []int{o.w.Dim(1)}
		case KindBiasAdd:
			if flat != len(o.bias) {
				return fmt.Errorf("program: op %d BiasAdd over %d features, bias has %d", i, flat, len(o.bias))
			}
			o.outShape = o.inShape
		case KindReLU, KindSoftmax:
			o.outShape = o.inShape
		case KindPack:
			o.outShape = []int{flat}
		case KindUnpack:
			if flatLen(o.outShape) != flat {
				return fmt.Errorf("program: op %d Unpack to %v from %d elements", i, o.outShape, flat)
			}
		case KindLayer:
			out, err := probeLayer(o.layer, shape)
			if err != nil {
				return fmt.Errorf("program: op %d: %w", i, err)
			}
			o.outShape = out
		default:
			return fmt.Errorf("program: op %d has invalid kind", i)
		}
		shape = o.outShape
	}
	if len(shape) != 1 {
		return fmt.Errorf("program: output shape %v, want a flat [classes] vector", shape)
	}
	p.outDim = shape[0]
	return nil
}

// probeLayer runs one zero sample through a fallback layer to learn its
// output shape, scoping the layer's panic on a mismatched input into an
// error.
func probeLayer(l nn.Layer, inShape []int) (outShape []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			outShape, err = nil, fmt.Errorf("layer %s rejects input shape %v: %v", l.Name(), inShape, r)
		}
	}()
	out := l.Forward(tensor.New(append([]int{1}, inShape...)...), false)
	return out.Shape()[1:], nil
}

// fuseEpilogues is the general epilogue-fusion pass, subsuming the
// hand-rolled CircDense→ReLU peephole the interpreter used to carry: any
// product op (BlockCircMul, MatMul) followed by a BiasAdd
// absorbs it, and either may then absorb a following ReLU, so the whole
// y = ψ(Wᵀx + θ) epilogue rides along with the kernel's store and the
// activations are written exactly once. Absorbed ops are marked dead for
// the elimination pass.
func (p *Program) fuseEpilogues() {
	for i := range p.ops {
		o := &p.ops[i]
		if o.dead {
			continue
		}
		switch o.kind {
		case KindBlockCircMul, KindMatMul:
		default:
			continue
		}
		j := i + 1
		if j < len(p.ops) && p.ops[j].kind == KindBiasAdd && !p.ops[j].dead {
			o.fuseBias = true
			o.bias = p.ops[j].bias
			o.out = p.ops[j].out
			p.ops[j].dead = true
			j++
		}
		if j < len(p.ops) && p.ops[j].kind == KindReLU && !p.ops[j].dead {
			o.fuseReLU = true
			o.out = p.ops[j].out
			p.ops[j].dead = true
		}
	}
}

// eliminateDead sweeps ops marked dead by fusion or backend rewrites and
// cancels Pack/Unpack pairs that rewrites left adjacent (a pure view
// round-trip). The surviving chain is relinked.
func (p *Program) eliminateDead() {
	// Cancel adjacent view round-trips: Pack directly followed by Unpack
	// back to the same shape (or vice versa) is the identity.
	for i := 0; i+1 < len(p.ops); i++ {
		a, b := &p.ops[i], &p.ops[i+1]
		if a.dead || b.dead {
			continue
		}
		packPair := a.kind == KindPack && b.kind == KindUnpack ||
			a.kind == KindUnpack && b.kind == KindPack
		if packPair && sameShape(a.inShape, b.outShape) {
			a.dead, b.dead = true, true
		}
	}
	live := p.ops[:0]
	for i := range p.ops {
		if !p.ops[i].dead {
			live = append(live, p.ops[i])
		}
	}
	p.ops = live
	for i := range p.ops {
		if i > 0 {
			p.ops[i].in = p.ops[i-1].out
		}
	}
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// planArena assigns every op's output a placement and sizes the arenas.
// The float chain ping-pongs between two slots (a kernel never writes the
// slot its live input occupies; the chain is linear, so only one value is
// live at a time); view ops alias their input, fallback layers own their
// outputs, and the integer ops use dedicated int16/int64 scratch whose
// producers and consumers are always adjacent.
func (p *Program) planArena() error {
	needFallback := false
	needSpectral := false
	curFloat := slotOwned // slot holding the live float value; program input is external
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case KindPack, KindUnpack:
			o.slot = slotView
		case KindLayer:
			o.slot = slotOwned
			curFloat = slotOwned
			needFallback = true
		case KindQuantize:
			o.slot = slotI16
			if n := flatLen(o.outShape); n > p.qxMax {
				p.qxMax = n
			}
		case KindBlockCircMul, KindMatMul:
			if o.quantized {
				o.slot = slotI64
				if n := flatLen(o.outShape); n > p.qaccMax {
					p.qaccMax = n
				}
				if o.ntt != nil {
					// ⌈k/qgroup⌉ activation spectra plus one accumulator block.
					k, _ := o.circ.Grid()
					p.qnttMax = max(p.qnttMax, ((k+o.qgroup-1)/o.qgroup+1)*o.ntt.Size())
				}
			} else {
				o.slot = 1 - max(curFloat, 0)
				curFloat = o.slot
				if o.kind != KindMatMul {
					needSpectral = true
				}
			}
		default: // BiasAdd, ReLU, Softmax, Dequantize — float elementwise
			o.slot = 1 - max(curFloat, 0)
			curFloat = o.slot
		}
		if o.slot >= 0 {
			if n := flatLen(o.outShape); n > p.fmax[o.slot] {
				p.fmax[o.slot] = n
			}
		}
		// Output dims with a leading batch placeholder, so Run can bind
		// headers without assembling a shape slice per call.
		o.dims = append([]int{0}, o.outShape...)
	}
	if needSpectral {
		p.bws = circulant.NewBatchWorkspace()
	}
	if needFallback {
		p.fws = nn.NewWorkspace()
	}
	p.inDims = append([]int{0}, p.inShape...)
	return nil
}
