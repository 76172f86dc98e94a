package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Network binary format (little-endian) — the on-disk model representation
// written by the offline trainer and read by the engine's parameters parser
// (the second software module of Fig. 4):
//
//	magic    uint32 0x54454E4E ("NNET")
//	version  uint32 (1)
//	nlayers  uint32
//	per layer:
//	  tag     uint8 (layer kind)
//	  config  kind-specific little-endian fields
//	  params  tensor.WriteTo for each parameter, in Params() order

const (
	netMagic   = 0x54454E4E
	netVersion = 1
)

// Layer kind tags.
const (
	tagDense byte = iota + 1
	tagCircDense
	tagConv
	tagCircConv
	tagReLU
	tagSigmoid
	tagTanh
	tagSoftmax
	tagMaxPool
	tagAvgPool
	tagFlatten
	tagDropout
	tagFFTConv
	tagBatchNorm
)

// Save serialises the network's architecture and parameters.
func (n *Network) Save(w io.Writer) error {
	if err := writeU32(w, netMagic, netVersion, uint32(len(n.Layers))); err != nil {
		return err
	}
	for _, l := range n.Layers {
		if err := saveLayer(w, l); err != nil {
			return fmt.Errorf("nn: saving %s: %w", l.Name(), err)
		}
	}
	return nil
}

func saveLayer(w io.Writer, l Layer) error {
	switch v := l.(type) {
	case *Dense:
		if err := writeTag(w, tagDense); err != nil {
			return err
		}
		if err := writeU32(w, uint32(v.In), uint32(v.Out)); err != nil {
			return err
		}
	case *CircDense:
		if err := writeTag(w, tagCircDense); err != nil {
			return err
		}
		if err := writeU32(w, uint32(v.In), uint32(v.Out), uint32(v.Block)); err != nil {
			return err
		}
	case *Conv2D:
		if err := writeTag(w, tagConv); err != nil {
			return err
		}
		if err := writeGeom(w, v.Geom); err != nil {
			return err
		}
	case *CircConv2D:
		if err := writeTag(w, tagCircConv); err != nil {
			return err
		}
		if err := writeGeom(w, v.Geom); err != nil {
			return err
		}
		if err := writeU32(w, uint32(v.Block)); err != nil {
			return err
		}
	case *ReLU:
		return writeTag(w, tagReLU)
	case *Sigmoid:
		return writeTag(w, tagSigmoid)
	case *Tanh:
		return writeTag(w, tagTanh)
	case *Softmax:
		return writeTag(w, tagSoftmax)
	case *MaxPool:
		if err := writeTag(w, tagMaxPool); err != nil {
			return err
		}
		return writeU32(w, uint32(v.Size))
	case *AvgPool:
		if err := writeTag(w, tagAvgPool); err != nil {
			return err
		}
		return writeU32(w, uint32(v.Size))
	case *Flatten:
		return writeTag(w, tagFlatten)
	case *Dropout:
		if err := writeTag(w, tagDropout); err != nil {
			return err
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Rate))
		_, err := w.Write(buf[:])
		return err
	case *FFTConv2D:
		if err := writeTag(w, tagFFTConv); err != nil {
			return err
		}
		if err := writeGeom(w, v.Geom); err != nil {
			return err
		}
	case *BatchNorm:
		if err := writeTag(w, tagBatchNorm); err != nil {
			return err
		}
		if err := writeU32(w, uint32(v.Features)); err != nil {
			return err
		}
		// Running statistics travel with the model.
		buf := make([]byte, 16*v.Features)
		for i := 0; i < v.Features; i++ {
			binary.LittleEndian.PutUint64(buf[16*i:], math.Float64bits(v.runMean[i]))
			binary.LittleEndian.PutUint64(buf[16*i+8:], math.Float64bits(v.runVar[i]))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	default:
		return fmt.Errorf("nn: unserialisable layer type %T", l)
	}
	for _, p := range l.(interface{ Params() []*Param }).Params() {
		if _, err := p.Value.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// Load deserialises a network written by Save. Stochastic layers (Dropout)
// are reseeded from rng; pass a seeded source for reproducibility.
func Load(r io.Reader, rng *rand.Rand) (*Network, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nn: reading model header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != netMagic {
		return nil, fmt.Errorf("nn: bad model magic %#x", m)
	}
	if ver := binary.LittleEndian.Uint32(hdr[4:]); ver != netVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d", ver)
	}
	count := int(binary.LittleEndian.Uint32(hdr[8:]))
	if count < 0 || count > 10000 {
		return nil, fmt.Errorf("nn: implausible layer count %d", count)
	}
	net := NewNetwork()
	for i := 0; i < count; i++ {
		l, err := loadLayer(r, rng)
		if err != nil {
			return nil, fmt.Errorf("nn: loading layer %d: %w", i, err)
		}
		net.Add(l)
	}
	return net, nil
}

// Clone deep-copies the network (architecture, parameters, BatchNorm
// running statistics) through the serialisation round trip. Clones share no
// mutable state: model.Replicate hands one to each serving replica whose
// program still interprets a layer with per-call state.
func (n *Network) Clone() (*Network, error) {
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		return nil, fmt.Errorf("nn: cloning network: %w", err)
	}
	// Stochastic layers are reseeded deterministically; inference does not
	// consume randomness.
	return Load(&buf, rand.New(rand.NewSource(0)))
}

func loadLayer(r io.Reader, rng *rand.Rand) (Layer, error) {
	var tag [1]byte
	if _, err := io.ReadFull(r, tag[:]); err != nil {
		return nil, err
	}
	var l Layer
	switch tag[0] {
	case tagDense:
		dims, err := readU32(r, 2)
		if err != nil {
			return nil, err
		}
		l = NewDense(int(dims[0]), int(dims[1]), rng)
	case tagCircDense:
		dims, err := readU32(r, 3)
		if err != nil {
			return nil, err
		}
		l = NewCircDense(int(dims[0]), int(dims[1]), int(dims[2]), rng)
	case tagConv:
		g, err := readGeom(r)
		if err != nil {
			return nil, err
		}
		l = NewConv2D(g, rng)
	case tagCircConv:
		g, err := readGeom(r)
		if err != nil {
			return nil, err
		}
		b, err := readU32(r, 1)
		if err != nil {
			return nil, err
		}
		l = NewCircConv2D(g, int(b[0]), rng)
	case tagReLU:
		return NewReLU(), nil
	case tagSigmoid:
		return NewSigmoid(), nil
	case tagTanh:
		return NewTanh(), nil
	case tagSoftmax:
		return NewSoftmax(), nil
	case tagMaxPool:
		v, err := readU32(r, 1)
		if err != nil {
			return nil, err
		}
		return NewMaxPool(int(v[0])), nil
	case tagAvgPool:
		v, err := readU32(r, 1)
		if err != nil {
			return nil, err
		}
		return NewAvgPool(int(v[0])), nil
	case tagFlatten:
		return NewFlatten(), nil
	case tagDropout:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		rate := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		return NewDropout(rate, rng.Float64), nil
	case tagFFTConv:
		g, err := readGeom(r)
		if err != nil {
			return nil, err
		}
		fc, err := NewFFTConv2D(g, rng)
		if err != nil {
			return nil, err
		}
		l = fc
	case tagBatchNorm:
		v, err := readU32(r, 1)
		if err != nil {
			return nil, err
		}
		bn := NewBatchNorm(int(v[0]))
		buf := make([]byte, 16*bn.Features)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		for i := 0; i < bn.Features; i++ {
			bn.runMean[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[16*i:]))
			bn.runVar[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[16*i+8:]))
		}
		l = bn
	default:
		return nil, fmt.Errorf("unknown layer tag %d", tag[0])
	}
	for _, p := range l.Params() {
		t, err := tensor.ReadFrom(r)
		if err != nil {
			return nil, err
		}
		if !t.SameShape(p.Value) {
			return nil, fmt.Errorf("parameter %s shape %v, expected %v", p.Name, t.Shape(), p.Value.Shape())
		}
		copy(p.Value.Data, t.Data)
		if p.OnUpdate != nil {
			p.OnUpdate()
		}
	}
	return l, nil
}

func writeTag(w io.Writer, t byte) error {
	_, err := w.Write([]byte{t})
	return err
}

func writeU32(w io.Writer, vs ...uint32) error {
	buf := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	_, err := w.Write(buf)
	return err
}

func readU32(r io.Reader, n int) ([]uint32, error) {
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return out, nil
}

func writeGeom(w io.Writer, g tensor.Conv2DGeom) error {
	return writeU32(w, uint32(g.H), uint32(g.W), uint32(g.C), uint32(g.R), uint32(g.P), uint32(g.Stride), uint32(g.Pad))
}

func readGeom(r io.Reader) (tensor.Conv2DGeom, error) {
	v, err := readU32(r, 7)
	if err != nil {
		return tensor.Conv2DGeom{}, err
	}
	return tensor.Conv2DGeom{
		H: int(v[0]), W: int(v[1]), C: int(v[2]),
		R: int(v[3]), P: int(v[4]), Stride: int(v[5]), Pad: int(v[6]),
	}, nil
}
