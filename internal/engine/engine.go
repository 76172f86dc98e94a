package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// Parameter file format (module 2 of Fig. 4), version 2, integers
// little-endian — a fixed 32-byte header, then the body:
//
//	magic    uint32 0x504C4446 ("FDLP" — FFT Deep Learning Parameters)
//	version  uint32 (2)
//	count    uint64 float64 values in the body
//	shapes   uint32 CRC-32C of the architecture's shape list
//	checksum uint32 CRC-32C of the body bytes
//	reserved uint64 zero
//	body     count raw little-endian float64: every parameter tensor in
//	         Network.Params() order, then each BatchNorm's running mean
//	         and variance in layer order
//
// The file carries only numbers; the shapes come from the architecture
// file. The shape digest rejects a file written for another architecture
// even when the totals match, and the checksum a corrupt body. With no
// per-tensor headers the body is one contiguous run, 8-byte aligned in a
// page-aligned mapping, so MapParameters binds the network's tensors to
// the mapped file in place.

const (
	paramMagic     = 0x504C4446
	paramVersion   = 2
	paramHeaderLen = 32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// nativeLittle reports whether the host stores float64 little-endian, the
// body's layout; only then can a mapped body back the network in place.
var nativeLittle = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bodyRuns lists the body's float64 runs in file order, each as the slice
// header that holds it, with their total length and the CRC-32C of their
// shapes.
func bodyRuns(net *nn.Network) (runs []*[]float64, count int, shapes uint32) {
	var list []byte
	add := func(run *[]float64, shape ...int) {
		list = binary.LittleEndian.AppendUint32(list, uint32(len(shape)))
		for _, d := range shape {
			list = binary.LittleEndian.AppendUint32(list, uint32(d))
		}
		runs = append(runs, run)
		count += len(*run)
	}
	for _, p := range net.Params() {
		add(&p.Value.Data, p.Value.Shape()...)
	}
	for _, l := range net.Layers {
		if bn, ok := l.(*nn.BatchNorm); ok {
			mean, variance := bn.RunningStats()
			add(mean, len(*mean))
			add(variance, len(*variance))
		}
	}
	return runs, count, crc32.Checksum(list, castagnoli)
}

// SaveParameters writes the network's trained parameters (module 2's file,
// produced by the offline trainer).
func SaveParameters(w io.Writer, net *nn.Network) error {
	runs, count, shapes := bodyRuns(net)
	buf := make([]byte, paramHeaderLen, paramHeaderLen+8*count)
	for _, run := range runs {
		for _, v := range *run {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	binary.LittleEndian.PutUint32(buf[0:], paramMagic)
	binary.LittleEndian.PutUint32(buf[4:], paramVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(count))
	binary.LittleEndian.PutUint32(buf[16:], shapes)
	binary.LittleEndian.PutUint32(buf[20:], crc32.Checksum(buf[paramHeaderLen:], castagnoli))
	_, err := w.Write(buf)
	return err
}

// checkHeader validates a header against the architecture's count and
// shape digest and returns the body checksum it records.
func checkHeader(hdr []byte, count int, shapes uint32) (uint32, error) {
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != paramMagic {
		return 0, fmt.Errorf("engine: bad parameter magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != paramVersion {
		return 0, fmt.Errorf("engine: unsupported parameter version %d", v)
	}
	if r := binary.LittleEndian.Uint64(hdr[24:]); r != 0 {
		return 0, fmt.Errorf("engine: parameter header reserved field %#x, want 0", r)
	}
	if n := binary.LittleEndian.Uint64(hdr[8:]); n != uint64(count) {
		return 0, fmt.Errorf("engine: parameter file has %d values, architecture needs %d", n, count)
	}
	if s := binary.LittleEndian.Uint32(hdr[16:]); s != shapes {
		return 0, fmt.Errorf("engine: parameter shape digest %#x, architecture's is %#x (file written for another architecture)", s, shapes)
	}
	return binary.LittleEndian.Uint32(hdr[20:]), nil
}

// install checksums body and moves it into the network: bound in place
// when bind is set and the host layout allows it, decoded into the
// network's own storage otherwise. The update hooks then rebuild derived
// state (circulant spectra). Nothing is written unless the checksum holds.
func (e *Engine) install(runs []*[]float64, body []byte, sum uint32, bind bool) error {
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return fmt.Errorf("engine: parameter body checksum %#x, header says %#x (corrupt file)", got, sum)
	}
	var view []float64
	if bind && nativeLittle && len(body) > 0 && uintptr(unsafe.Pointer(&body[0]))%8 == 0 {
		view = unsafe.Slice((*float64)(unsafe.Pointer(&body[0])), len(body)/8)
	}
	off := 0
	for _, run := range runs {
		n := len(*run)
		if view != nil {
			*run = view[off : off+n : off+n]
		} else {
			dst := *run
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*(off+i):]))
			}
		}
		off += n
	}
	for _, p := range e.Net.Params() {
		if p.OnUpdate != nil {
			p.OnUpdate()
		}
	}
	return nil
}

// LoadParameters installs trained weights and biases from a parameter file
// into the parsed network's own storage (module 2 of Fig. 4). The reader
// must hold exactly one file: trailing bytes are an error.
func (e *Engine) LoadParameters(r io.Reader) error {
	runs, count, shapes := bodyRuns(e.Net)
	var hdr [paramHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("engine: reading parameter header: %w", err)
	}
	sum, err := checkHeader(hdr[:], count, shapes)
	if err != nil {
		return err
	}
	body := make([]byte, 8*count)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("engine: reading parameter body: %w", err)
	}
	if n, _ := io.ReadFull(r, hdr[:1]); n != 0 {
		return fmt.Errorf("engine: parameter file has trailing bytes after its %d values", count)
	}
	return e.install(runs, body, sum, false)
}

// MapParameters maps the parameter file at path read-only and rebinds
// every parameter tensor and running statistic of the parsed network to
// its slice of the mapping — zero copies, weights file-resident and shared
// by every process mapping the same file. On a big-endian host it decodes
// into the network's own storage instead. The mapping is read-only, so
// nothing may write the bound tensors afterwards (training or another
// load faults). The caller closes the returned mapping after the network's
// last use; a file replaced by rename stays mapped, but one truncated in
// place faults its readers.
func (e *Engine) MapParameters(path string) (*platform.Mapping, error) {
	mp, err := platform.MapFile(path)
	if err != nil {
		return nil, err
	}
	if err := e.bindMapped(mp.Bytes()); err != nil {
		_ = mp.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return mp, nil
}

// bindMapped validates a whole mapped file and binds its body.
func (e *Engine) bindMapped(data []byte) error {
	runs, count, shapes := bodyRuns(e.Net)
	if len(data) < paramHeaderLen {
		return fmt.Errorf("engine: parameter file of %d bytes is shorter than its header", len(data))
	}
	sum, err := checkHeader(data, count, shapes)
	if err != nil {
		return err
	}
	if len(data) != paramHeaderLen+8*count {
		return fmt.Errorf("engine: parameter file holds %d bytes, header describes %d", len(data), paramHeaderLen+8*count)
	}
	return e.install(runs, data[paramHeaderLen:], sum, true)
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
