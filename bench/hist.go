package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// hist is a fixed-size log-bucket latency histogram over nanoseconds:
// every power of two is split into histSub equal sub-buckets, so a bucket
// is at most 1/histSub (1.6%) wide; quantiles interpolate inside the
// bucket, which keeps them within 1% of the exact ones on any latency
// distribution dense enough to have a p95 (the test pins that). Recording is two shifts and one atomic increment,
// stores no samples and never allocates, so every generator goroutine can
// record into the same histogram from inside its measured loop.
type hist struct {
	counts [histBuckets]atomic.Uint32
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// Values below histSub ns land in exact unit buckets; 32 octaves above
	// that reach 2^38 ns (4.6 min), far past any deadline here. One
	// histogram is 8 KiB, so 400 windows of them stay small beside the
	// on-device workloads' own footprint.
	histOctaves = 32
	histBuckets = histSub * (histOctaves + 1)
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 - histSubBits // ≥ 0
	idx := (exp+1)<<histSubBits | int(uint64(ns)>>uint(exp))&(histSub-1)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// histBounds returns bucket idx's half-open range [lo, lo+width) in ns.
func histBounds(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	exp := uint(idx>>histSubBits - 1)
	return float64(uint64(histSub|idx&(histSub-1)) << exp), float64(uint64(1) << exp)
}

func (h *hist) record(ns int64) { h.counts[histIndex(ns)].Add(1) }

func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
}

func (h *hist) total() uint64 {
	var n uint64
	for i := range h.counts {
		n += uint64(h.counts[i].Load())
	}
	return n
}

// quantile returns the q-quantile in ns, interpolated linearly inside the
// bucket that holds the target rank (so two runs that land in the same
// bucket still read differently), or NaN for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return math.NaN()
	}
	rank := math.Max(q*float64(n), 1)
	var cum float64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// sum approximates the total of all samples, in ns, from bucket midpoints.
func (h *hist) sum() float64 {
	var s float64
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			lo, width := histBounds(i)
			s += float64(c) * (lo + width/2)
		}
	}
	return s
}
