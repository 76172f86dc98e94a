package engine

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// Parameter file format (module 2 of Fig. 4, little-endian):
//
//	magic   uint32 0x504C4446 ("FDLP" — FFT Deep Learning Parameters)
//	version uint32 (1)
//	count   uint32 — number of parameter tensors
//	count × tensor blobs (tensor.WriteTo), in Network.Params() order
//
// The file carries only the numbers; the shapes come from the architecture
// file, and both must agree — mismatches are reported with the parameter
// index.

const (
	paramMagic   = 0x504C4446
	paramVersion = 1
)

// SaveParameters writes the network's trained parameters (module 2's file,
// produced by the offline trainer).
func SaveParameters(w io.Writer, net *nn.Network) error {
	params := net.Params()
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], paramMagic)
	binary.LittleEndian.PutUint32(hdr[4:], paramVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(params)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for i, p := range params {
		if _, err := p.Value.WriteTo(w); err != nil {
			return fmt.Errorf("engine: writing parameter %d (%s): %w", i, p.Name, err)
		}
	}
	return nil
}

// LoadParameters installs trained weights and biases from a parameter file
// into the parsed network (module 2 of Fig. 4).
func (e *Engine) LoadParameters(r io.Reader) error {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("engine: reading parameter header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != paramMagic {
		return fmt.Errorf("engine: bad parameter magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != paramVersion {
		return fmt.Errorf("engine: unsupported parameter version %d", v)
	}
	params := e.Net.Params()
	count := int(binary.LittleEndian.Uint32(hdr[8:]))
	if count != len(params) {
		return fmt.Errorf("engine: parameter file has %d tensors, architecture needs %d", count, len(params))
	}
	for i, p := range params {
		t, err := tensor.ReadFrom(r)
		if err != nil {
			return fmt.Errorf("engine: reading parameter %d (%s): %w", i, p.Name, err)
		}
		if !t.SameShape(p.Value) {
			return fmt.Errorf("engine: parameter %d (%s) has shape %v, architecture needs %v",
				i, p.Name, t.Shape(), p.Value.Shape())
		}
		copy(p.Value.Data, t.Data)
		if p.OnUpdate != nil {
			p.OnUpdate()
		}
	}
	return nil
}

// LoadInputs reads IDX image and label files (module 3 of Fig. 4) and
// validates them against the architecture's input shape. channels must match
// the image file (1 for greyscale).
func (e *Engine) LoadInputs(images, labels io.Reader, channels int) (*dataset.Dataset, error) {
	x, err := dataset.ReadIDXImages(images, channels)
	if err != nil {
		return nil, err
	}
	lab, err := dataset.ReadIDXLabels(labels)
	if err != nil {
		return nil, err
	}
	if x.Dim(0) != len(lab) {
		return nil, fmt.Errorf("engine: %d images but %d labels", x.Dim(0), len(lab))
	}
	d := &dataset.Dataset{X: x, Labels: lab}
	per := x.Len() / x.Dim(0)
	want := 1
	for _, v := range e.InShape {
		want *= v
	}
	if per != want {
		return nil, fmt.Errorf("engine: inputs have %d features per sample, architecture needs %d", per, want)
	}
	if len(e.InShape) == 1 {
		d = d.Flatten()
	} else if x.Dim(1) != e.InShape[0] || x.Dim(2) != e.InShape[1] || x.Dim(3) != e.InShape[2] {
		return nil, fmt.Errorf("engine: input images %v, architecture needs %v", x.Shape()[1:], e.InShape)
	}
	return d, nil
}

// Evaluate returns classification accuracy over the dataset, from the
// compiled forward of PredictBatched. The batch size only sets the speed: a
// compiled program's scores are the same bits at any batch.
func (e *Engine) Evaluate(d *dataset.Dataset) (float64, error) {
	preds, err := e.PredictBatched(d, 64)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range preds {
		if p == d.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds)), nil
}

// InferenceCost returns the per-image op counts of the parsed network.
// It runs one probe forward pass so every layer knows its activation sizes.
func (e *Engine) InferenceCost() ops.Counts {
	probe := tensor.New(append([]int{1}, e.InShape...)...)
	e.Net.Forward(probe, false)
	return e.Net.CountOps()
}

// DeviceLatencyUS returns the modelled per-image latency of this network on
// a device/runtime configuration — the quantity the paper's Tables II/III
// report.
func (e *Engine) DeviceLatencyUS(cfg platform.Config) float64 {
	return cfg.EstimateUS(e.InferenceCost())
}
