package engine

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
)

// Model adapts a deployed engine — a parsed architecture with its loaded
// parameter file, the artefact modules 1+2 of Fig. 4 produce — into the
// serving stack's executor interface: the network compiled on the default
// float split-complex backend (internal/program).
func (e *Engine) Model(name, version string) (model.Model, error) {
	return model.New(name, version, e.Net, program.CompileOptions{InShape: e.InShape})
}

// PredictBatched runs inference over a whole dataset through a compiled
// program in batches of the given size (module 4 of Fig. 4 in its
// deployed form): one compile, then allocation-free batched forward
// passes. It returns the predicted class per sample.
func (e *Engine) PredictBatched(d *dataset.Dataset, batch int) ([]int, error) {
	if batch < 1 {
		return nil, fmt.Errorf("engine: non-positive batch %d", batch)
	}
	prog, err := program.Compile(e.Net, program.CompileOptions{InShape: e.InShape, BatchHint: batch})
	if err != nil {
		return nil, err
	}
	n := d.Len()
	preds := make([]int, 0, n)
	for lo := 0; lo < n; lo += batch {
		size := batch
		if lo+size > n {
			size = n - lo
		}
		x, _ := d.Batch(lo, size)
		out := prog.Run(x)
		for i := 0; i < size; i++ {
			preds = append(preds, nn.Argmax(out.Row(i)))
		}
	}
	return preds, nil
}
