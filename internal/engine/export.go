package engine

import (
	"fmt"
	"strings"

	"repro/internal/nn"
)

// ExportArchitecture renders a network back into the textual architecture
// format ParseArchitecture consumes, given the per-sample input shape. It is
// the inverse of module 1 of Fig. 4, used by the trainer to ship a matching
// arch.txt for any network it produces. Every layer type of internal/nn is
// supported; an unknown layer type is an error, and so is a BatchNorm whose
// momentum or epsilon is not NewBatchNorm's, which the format cannot hold.
func ExportArchitecture(net *nn.Network, inShape []int) (string, error) {
	var b strings.Builder
	switch len(inShape) {
	case 1:
		fmt.Fprintf(&b, "input %d\n", inShape[0])
	case 3:
		fmt.Fprintf(&b, "input %d %d %d\n", inShape[0], inShape[1], inShape[2])
	default:
		return "", fmt.Errorf("engine: input shape %v must have 1 or 3 dims", inShape)
	}
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Dense:
			fmt.Fprintf(&b, "fc %d\n", v.Out)
		case *nn.CircDense:
			fmt.Fprintf(&b, "circfc %d block=%d\n", v.Out, v.Block)
		case *nn.Conv2D:
			fmt.Fprintf(&b, "conv %d %d stride=%d pad=%d\n", v.Geom.P, v.Geom.R, v.Geom.Stride, v.Geom.Pad)
		case *nn.CircConv2D:
			fmt.Fprintf(&b, "circconv %d %d block=%d stride=%d pad=%d\n",
				v.Geom.P, v.Geom.R, v.Block, v.Geom.Stride, v.Geom.Pad)
		case *nn.FFTConv2D:
			fmt.Fprintf(&b, "fftconv %d %d\n", v.Geom.P, v.Geom.R)
		case *nn.ReLU:
			b.WriteString("relu\n")
		case *nn.Sigmoid:
			b.WriteString("sigmoid\n")
		case *nn.Tanh:
			b.WriteString("tanh\n")
		case *nn.Softmax:
			b.WriteString("softmax\n")
		case *nn.MaxPool:
			fmt.Fprintf(&b, "maxpool %d\n", v.Size)
		case *nn.AvgPool:
			fmt.Fprintf(&b, "avgpool %d\n", v.Size)
		case *nn.Flatten:
			b.WriteString("flatten\n")
		case *nn.Dropout:
			fmt.Fprintf(&b, "dropout %g\n", v.Rate)
		case *nn.BatchNorm:
			// The line carries no options: the parser rebuilds the layer
			// with NewBatchNorm's momentum and epsilon, so a layer with
			// other values cannot be written without changing what it
			// computes.
			if def := nn.NewBatchNorm(1); v.Epsilon != def.Epsilon || v.Momentum != def.Momentum {
				return "", fmt.Errorf("engine: cannot export batchnorm with momentum %g and epsilon %g: the format holds only the defaults %g and %g",
					v.Momentum, v.Epsilon, def.Momentum, def.Epsilon)
			}
			b.WriteString("batchnorm\n")
		default:
			return "", fmt.Errorf("engine: cannot export layer type %T", l)
		}
	}
	return b.String(), nil
}
