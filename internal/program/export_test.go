package program

import "repro/internal/tensor"

// RunCheckingQCirc is Run with every integer circulant product compared,
// as it is produced, against the time-domain definition (qcircDefinition)
// on the same quantised operands. It returns the scores, the number of
// products checked and the number of accumulators that differed — the hook
// the external differential test reaches the integer scratch through.
func (p *Program) RunCheckingQCirc(x *tensor.Tensor) (y *tensor.Tensor, products, mismatches int) {
	batch := x.Dim(0)
	p.ensure(batch)
	y = x
	for i := range p.ops {
		o := &p.ops[i]
		y = p.exec(o, y, batch)
		if !o.quantized || o.circ == nil {
			continue
		}
		products++
		for t, want := range qcircDefinition(o, p.qx, batch) {
			if p.qacc[t] != want {
				mismatches++
			}
		}
	}
	return y, products, mismatches
}
