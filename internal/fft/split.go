package fft

// Split-complex (structure-of-arrays) vectors: parallel real and imaginary
// float64 slices instead of interleaved []complex128.
//
// The AoS complex128 layout forces every butterfly to move 16-byte re/im
// pairs through the registers together, which defeats wide loads and keeps
// the compiler from turning the inner loop into straight-line float
// arithmetic. The SoA layout is the memory discipline of high-performance
// FFT libraries: two dense float64 streams, branch-free butterflies with the
// twiddle tables themselves stored split (Plan.stageTw/stageTwInv), so the
// hot loop is pure float64 multiply-adds at unit stride. Every split transform in the
// package — the circulant engine's batches and RealPlan's single-vector
// ForwardSplit/InverseSplit alike — runs the bin-major Many kernels of
// splitmany.go. The complex128 Plan.Forward/Inverse remain behind the
// any-size FFT/IFFT entry points and Bluestein, and as the reference the
// split kernels are held bit-identical to.

// SplitSlice is a complex vector in split (planar) form: element k is
// Re[k] + i·Im[k]. The two slices must have equal length. The zero value is
// an empty vector; grow one with NewSplit or Resize.
type SplitSlice struct {
	Re, Im []float64
}

// NewSplit allocates a zero-filled split vector of length n.
func NewSplit(n int) SplitSlice {
	return SplitSlice{Re: make([]float64, n), Im: make([]float64, n)}
}

// Len returns the vector length.
//
//repro:noalloc
func (s SplitSlice) Len() int { return len(s.Re) }

// Resize returns a split vector of length n, reusing the receiver's storage
// when it has the capacity (contents are then unspecified). The idiom for
// caller-owned scratch that grows to the largest transform it has served.
//
//repro:noalloc
func (s SplitSlice) Resize(n int) SplitSlice {
	if cap(s.Re) < n || cap(s.Im) < n {
		return NewSplit(n)
	}
	return SplitSlice{Re: s.Re[:n], Im: s.Im[:n]}
}

// Zero clears the vector.
//
//repro:noalloc
func (s SplitSlice) Zero() {
	for i := range s.Re {
		s.Re[i] = 0
	}
	for i := range s.Im {
		s.Im[i] = 0
	}
}

// splitTables precomputes the split per-stage twiddle tables on a Plan;
// called from NewPlan so every plan (cached or not) carries both
// representations. Stage s (butterfly width 4·2^s) gets its factors
// e^{-2πi·k/size}, k ∈ [0, size/2), stored contiguously — the values are
// copied from the complex table (tw[k·step] with step = n/size), never
// recomputed, so the split transforms stay bit-identical to the complex
// one. Total extra storage is ~2n float64 per direction.
func (p *Plan) splitTables() {
	for size := 4; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		fwd, inv := NewSplit(half), NewSplit(half)
		for k := 0; k < half; k++ {
			fwd.Re[k], fwd.Im[k] = real(p.tw[k*step]), imag(p.tw[k*step])
			inv.Re[k], inv.Im[k] = real(p.twInv[k*step]), imag(p.twInv[k*step])
		}
		p.stageTw = append(p.stageTw, fwd)
		p.stageTwInv = append(p.stageTwInv, inv)
	}
}
