package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/tensor"
)

// The on-device workloads are the paper's Fig. 4 flow in one process and
// one goroutine: parse the architecture file, load the parameter file,
// compile, then run one image at a time.

// writeBundle writes net as the arch.txt + params.bin pair cmd/train
// ships and cmd/serve -model loads, so the binaries serve exactly the
// network the oracle holds.
func writeBundle(dir string, net *nn.Network, inShape []int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	arch, err := engine.ExportArchitecture(net, inShape)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "arch.txt"), []byte(arch), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "params.bin"))
	if err != nil {
		return err
	}
	if err := engine.SaveParameters(f, net); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadBundle is modules 1 and 2 of Fig. 4: architecture parser, then
// parameter loader.
func loadBundle(dir string) (*engine.Engine, error) {
	af, err := os.Open(filepath.Join(dir, "arch.txt"))
	if err != nil {
		return nil, err
	}
	defer af.Close()
	e, err := engine.ParseArchitecture(af, rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, err
	}
	pf, err := os.Open(filepath.Join(dir, "params.bin"))
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	if err := e.LoadParameters(pf); err != nil {
		return nil, err
	}
	return e, nil
}

type edgeInst struct {
	bundle  string
	backend program.Backend
	fixed   bool
	inputs  []*tensor.Tensor // one [1,256] header per pool image
	order   []int
	oracle  *oracle
	prog    *program.Program
}

func prepareEdge(e *env, fixed bool) (instance, error) {
	net := newModel()
	bundle := filepath.Join(e.workDir, "model", "arch1")
	if err := writeBundle(bundle, net, []int{arch1Features}); err != nil {
		return nil, err
	}
	pool := newPool(e.seed, edgePool, arch1Features)
	in := &edgeInst{bundle: bundle, fixed: fixed, order: cycleOrder(e.seed, edgePool)}
	relTol := 0.0
	if fixed {
		in.backend = program.Int16Spectral(12, 12)
		relTol = fixedRelTol
	}
	in.oracle = newOracle(net, pool, relTol)
	if e.corrupt {
		in.oracle.corrupt(in.order[0])
	}
	in.inputs = make([]*tensor.Tensor, len(pool))
	for i, row := range pool {
		in.inputs[i] = tensor.FromSlice(row, 1, arch1Features)
	}
	return in, nil
}

func (in *edgeInst) setUp() error {
	e, err := loadBundle(in.bundle)
	if err != nil {
		return err
	}
	in.prog, err = program.Compile(e.Net, program.CompileOptions{InShape: e.InShape, Backend: in.backend, BatchHint: 1})
	return err
}

func (in *edgeInst) tearDown()      { in.prog = nil }
func (in *edgeInst) setupReps() int { return 101 } // a fifth of a millisecond each: many repetitions steady the median
func (in *edgeInst) lanes() int     { return 1 }
func (in *edgeInst) sutPIDs() []int { return nil }

func (in *edgeInst) scrapeURLs() ([]string, int) { return nil, 0 }

func (in *edgeInst) begin(*timeline) error { return nil }

// selfCheck runs the whole stream twice and requires bit-identical
// outputs: the fixed-point build in particular must be deterministic.
func (in *edgeInst) selfCheck() error {
	var sums [2]uint64
	for pass := range sums {
		h := fnv.New64a()
		var b [8]byte
		for _, idx := range in.order {
			for _, v := range in.prog.Run(in.inputs[idx]).Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		sums[pass] = h.Sum64()
	}
	if sums[0] != sums[1] {
		return fmt.Errorf("two passes over the same stream differ: checksum %#x then %#x", sums[0], sums[1])
	}
	return nil
}

func (in *edgeInst) runLane(_ int, l *lane, tl *timeline) {
	end := tl.end()
	prev := time.Now()
	for i := 0; ; i++ {
		idx := in.order[i%len(in.order)]
		x := in.inputs[idx]
		start := time.Now()
		y := in.prog.Run(x)
		done := time.Now()
		var err error
		if !in.oracle.check(idx, nn.Argmax(y.Data), y.Data, i%scoreCheckEvery == 0) {
			err = wrongAnswer("Program.Run", idx)
		}
		if l.spans != nil && tl.tracing(start) {
			checked := time.Now()
			req := uint64(i + 1)
			root := l.spans.nextID()
			l.spans.add("program.Run", start, done, root, req)
			l.spans.add("oracle.check", done, checked, root, req)
			l.spans.put(root, "op", start, checked, 0, req)
		}
		l.record(tl, done, done.Sub(start), start.Sub(prev), err)
		if err == nil {
			l.slot(tl, prev, done)
		}
		prev = done
		if !done.Before(end) {
			return
		}
	}
}
