package vector

import "fmt"

// Result is one search hit.
type Result struct {
	ID    string  `json:"id"`
	Score float32 `json:"score"`
}

// SearchOptions parameterises one query.
type SearchOptions struct {
	// Metric selects the score; the zero value is cosine.
	Metric Metric
	// Quantized scores against the int8 mirror (q·v ≈ sq·sv·⟨q8,v8⟩)
	// instead of the float32 rows — the retrieval-path continuation of
	// the paper's fixed-point story. Cosine denominators stay the exact
	// float norms.
	Quantized bool
	// NProbe > 0 enables the ANN index: rank centroids by distance, scan
	// only the NProbe nearest inverted lists. 0 scans everything (exact
	// brute force). Searching with NProbe > 0 on an untrained collection
	// is an error — silent fallback would mask a missing TrainANN.
	NProbe int
}

// Searcher is per-goroutine search scratch: the candidate heap, the
// centroid ranking, and the quantised query. One warm Searcher makes
// SearchInto allocation-free; the zero value is ready to use. A Searcher
// must not be shared between concurrent queries.
type Searcher struct {
	heapRow   []int32
	heapScore []float32
	centRank  []int32
	centScore []float32
	q8        []int8
}

// ensure sizes the scratch, retaining capacity across calls.
//
//repro:noalloc
func (sc *Searcher) ensure(k, cents, dim int, quantized bool) {
	if cap(sc.heapRow) < k {
		sc.heapRow = make([]int32, k)
		sc.heapScore = make([]float32, k)
	}
	sc.heapRow = sc.heapRow[:0]
	sc.heapScore = sc.heapScore[:0]
	if cents > 0 {
		if cap(sc.centRank) < cents {
			sc.centRank = make([]int32, cents)
			sc.centScore = make([]float32, cents)
		}
		sc.centRank = sc.centRank[:0]
		sc.centScore = sc.centScore[:0]
	}
	if quantized {
		if cap(sc.q8) < dim {
			sc.q8 = make([]int8, dim)
		}
		sc.q8 = sc.q8[:dim]
	}
}

// push offers (row, score) to the bounded min-heap: while fewer than k
// candidates are held it inserts, afterwards it replaces the minimum iff
// score beats it. Ties keep the incumbent, so earlier rows win equal
// scores deterministically.
//
//repro:noalloc
func (sc *Searcher) push(k int, row int32, score float32) {
	if len(sc.heapRow) < k {
		sc.heapRow = append(sc.heapRow, row)
		sc.heapScore = append(sc.heapScore, score)
		i := len(sc.heapRow) - 1
		for i > 0 {
			p := (i - 1) / 2
			if sc.heapScore[p] <= sc.heapScore[i] {
				break
			}
			sc.heapScore[p], sc.heapScore[i] = sc.heapScore[i], sc.heapScore[p]
			sc.heapRow[p], sc.heapRow[i] = sc.heapRow[i], sc.heapRow[p]
			i = p
		}
		return
	}
	if score <= sc.heapScore[0] {
		return
	}
	sc.heapScore[0], sc.heapRow[0] = score, row
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(sc.heapScore) && sc.heapScore[l] < sc.heapScore[m] {
			m = l
		}
		if r < len(sc.heapScore) && sc.heapScore[r] < sc.heapScore[m] {
			m = r
		}
		if m == i {
			return
		}
		sc.heapScore[m], sc.heapScore[i] = sc.heapScore[i], sc.heapScore[m]
		sc.heapRow[m], sc.heapRow[i] = sc.heapRow[i], sc.heapRow[m]
		i = m
	}
}

// score computes one row's similarity under the options. qnorm is the
// query's L2 norm (float path) and qscale the query's int8 scale.
//
//repro:noalloc
func (sn *snapshot) score(q []float32, q8 []int8, qnorm, qscale float32, row int32, dim int, opt *SearchOptions) float32 {
	var s float32
	if opt.Quantized {
		s = float32(DotInt8(q8, sn.q8[int(row)*dim:(int(row)+1)*dim])) * qscale * sn.qscales[row]
	} else {
		s = Dot(q, sn.flat[int(row)*dim:(int(row)+1)*dim])
	}
	return sn.finish(s, qnorm, row, opt.Metric)
}

// finish turns a row's inner product s into its score: unchanged for
// MetricDot, divided by the norm product for cosine (0 when either norm
// is 0).
//
//repro:noalloc
func (sn *snapshot) finish(s, qnorm float32, row int32, m Metric) float32 {
	if m == MetricCosine {
		d := qnorm * sn.norms[row]
		if d == 0 {
			return 0
		}
		s /= d
	}
	return s
}

// SearchInto runs one top-k query against the current snapshot, filling
// dst (reused when capacity suffices) with results ordered best-first; a k
// above the row count returns every row. With a warm Searcher and a dst of
// capacity ≥ min(k, rows) the exact brute-force path performs zero
// allocations — this is the serving hot path the alloc gate pins. sc may
// be nil (allocates fresh scratch).
//
//repro:noalloc
func (c *Collection) SearchInto(dst []Result, sc *Searcher, q []float32, k int, opt SearchOptions) ([]Result, error) {
	if len(q) != c.dim {
		return dst, fmt.Errorf("vector: query width %d, collection %q is %d-wide", len(q), c.name, c.dim)
	}
	if k < 1 {
		return dst, fmt.Errorf("vector: k %d < 1", k)
	}
	sn := c.snap.Load()
	if opt.NProbe > 0 && sn.ivf == nil {
		return dst, fmt.Errorf("vector: collection %q has no ANN index (TrainANN first, or search with nprobe 0)", c.name)
	}
	if sc == nil {
		sc = &Searcher{}
	}
	k = min(k, sn.n()) // the heap never holds more than every row
	cents := 0
	if opt.NProbe > 0 {
		cents = sn.ivf.k
	}
	sc.ensure(k, cents, c.dim, opt.Quantized)
	var qnorm, qscale float32
	if opt.Metric == MetricCosine {
		qnorm = Norm(q)
	}
	if opt.Quantized {
		qscale = quantizeInt8(sc.q8, q)
	}
	if opt.NProbe > 0 {
		// Rank all centroids by (|c|² − 2⟨q,c⟩), ascending = nearest.
		ix := sn.ivf
		for ci := 0; ci < ix.k; ci++ {
			sc.centRank = append(sc.centRank, int32(ci))
			sc.centScore = append(sc.centScore, ix.cnorm2[ci]-2*Dot(q, ix.centroids[ci*c.dim:(ci+1)*c.dim]))
		}
		nprobe := opt.NProbe
		if nprobe > ix.k {
			nprobe = ix.k
		}
		// Partial selection sort: nprobe is small (≪ k centroids).
		for i := 0; i < nprobe; i++ {
			m := i
			for j := i + 1; j < len(sc.centRank); j++ {
				if sc.centScore[j] < sc.centScore[m] {
					m = j
				}
			}
			sc.centScore[i], sc.centScore[m] = sc.centScore[m], sc.centScore[i]
			sc.centRank[i], sc.centRank[m] = sc.centRank[m], sc.centRank[i]
			for _, row := range ix.lists[sc.centRank[i]] {
				sc.push(k, row, sn.score(q, sc.q8, qnorm, qscale, row, c.dim, &opt))
			}
		}
	} else if opt.Quantized {
		for row := int32(0); int(row) < sn.n(); row++ {
			sc.push(k, row, sn.score(q, sc.q8, qnorm, qscale, row, c.dim, &opt))
		}
	} else {
		// The exact float scan: four rows per kernel call, a last partial
		// block through Dot — the same bits either way.
		var dots [4]float32
		for row := 0; row < sn.n(); row += 4 {
			block := min(4, sn.n()-row)
			if block == 4 {
				dot4(q, sn.flat[row*c.dim:], c.dim, &dots)
			} else {
				for j := range block {
					dots[j] = Dot(q, sn.flat[(row+j)*c.dim:(row+j+1)*c.dim])
				}
			}
			for j := range block {
				r := int32(row + j)
				sc.push(k, r, sn.finish(dots[j], qnorm, r, opt.Metric))
			}
		}
	}
	c.queries.Add(1)
	// Drain the min-heap into dst, then reverse in place to best-first.
	dst = dst[:0]
	for len(sc.heapRow) > 0 {
		dst = append(dst, Result{ID: sn.ids[sc.heapRow[0]], Score: sc.heapScore[0]})
		last := len(sc.heapRow) - 1
		sc.heapRow[0], sc.heapScore[0] = sc.heapRow[last], sc.heapScore[last]
		sc.heapRow = sc.heapRow[:last]
		sc.heapScore = sc.heapScore[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < last && sc.heapScore[l] < sc.heapScore[m] {
				m = l
			}
			if r < last && sc.heapScore[r] < sc.heapScore[m] {
				m = r
			}
			if m == i {
				break
			}
			sc.heapScore[m], sc.heapScore[i] = sc.heapScore[i], sc.heapScore[m]
			sc.heapRow[m], sc.heapRow[i] = sc.heapRow[i], sc.heapRow[m]
			i = m
		}
	}
	for i, j := 0, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst, nil
}

// Search is the allocating convenience form of SearchInto.
func (c *Collection) Search(q []float32, k int, opt SearchOptions) ([]Result, error) {
	return c.SearchInto(nil, nil, q, k, opt)
}
