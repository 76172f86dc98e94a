package vector

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// naiveDot is the float64 oracle the float32 kernel is held to.
func naiveDot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// TestDotMatchesOracle: the four-lane float32 kernel must agree with the
// float64 oracle within 1e-6 relative over awkward lengths (tails of
// every residue mod 4).
func TestDotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 64, 127, 128, 130} {
		a, b := randVec(rng, dim), randVec(rng, dim)
		got := float64(Dot(a, b))
		want := naiveDot(a, b)
		tol := 1e-6 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Errorf("dim %d: Dot = %g, oracle %g", dim, got, want)
		}
		n := float64(Norm(a))
		wantN := math.Sqrt(naiveDot(a, a))
		if math.Abs(n-wantN) > 1e-6*(1+wantN) {
			t.Errorf("dim %d: Norm = %g, oracle %g", dim, n, wantN)
		}
	}
}

// TestInt8DotWithinQuantBound: the int8 scoring path must reproduce the
// float dot product within the analytic symmetric-quantisation bound
// (each side contributes half a step per element).
func TestInt8DotWithinQuantBound(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, dim := range []int{8, 64, 128, 130} {
		a, b := randVec(rng, dim), randVec(rng, dim)
		qa, qb := make([]int8, dim), make([]int8, dim)
		sa, sb := quantizeInt8(qa, a), quantizeInt8(qb, b)
		got := float64(sa) * float64(sb) * float64(DotInt8(qa, qb))
		want := naiveDot(a, b)
		// |Σ(a−ã)b̃ + Σa(b−b̃)| ≤ (sa/2)Σ|b̃| + (sb/2)Σ|a|, plus slack for
		// float32 rounding.
		var sumA, sumQB float64
		for i := range a {
			sumA += math.Abs(float64(a[i]))
			sumQB += math.Abs(float64(qb[i]) * float64(sb))
		}
		bound := float64(sa)/2*sumQB + float64(sb)/2*sumA + 1e-4
		if math.Abs(got-want) > bound {
			t.Errorf("dim %d: int8 dot %g vs float %g exceeds bound %g", dim, got, want, bound)
		}
	}
}

// TestUpsertAndSearch covers the store basics: insert, overwrite,
// dimension checks, best-first ordering under both metrics.
func TestUpsertAndSearch(t *testing.T) {
	s := NewStore()
	c, err := s.Ensure("docs", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ensure("docs", 4); err == nil {
		t.Error("dimension change accepted")
	}
	if _, err := s.Ensure("bad name", 3); err == nil {
		t.Error("invalid collection name accepted")
	}
	add, upd, err := c.Upsert(
		[]string{"x", "y", "z"},
		[][]float32{{1, 0, 0}, {0, 1, 0}, {0.9, 0.1, 0}},
	)
	if err != nil || add != 3 || upd != 0 {
		t.Fatalf("Upsert = %d added, %d updated, %v", add, upd, err)
	}
	add, upd, err = c.Upsert([]string{"y"}, [][]float32{{0, 2, 0}})
	if err != nil || add != 0 || upd != 1 {
		t.Fatalf("overwrite = %d added, %d updated, %v", add, upd, err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, _, err := c.Upsert([]string{"w"}, [][]float32{{1, 2}}); err == nil {
		t.Error("wrong-width vector accepted")
	}

	got, err := c.Search([]float32{1, 0, 0}, 2, SearchOptions{Metric: MetricCosine})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "x" || got[1].ID != "z" {
		t.Fatalf("cosine top-2 = %+v", got)
	}
	if math.Abs(float64(got[0].Score)-1) > 1e-6 {
		t.Errorf("self-similarity %g, want 1", got[0].Score)
	}
	// Dot metric rewards magnitude: "y" (norm 2) wins for an all-ones
	// query over unit vectors.
	got, err = c.Search([]float32{1, 1, 1}, 1, SearchOptions{Metric: MetricDot})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != "y" {
		t.Fatalf("dot top-1 = %+v", got)
	}
	// k past n returns everything.
	got, err = c.Search([]float32{1, 0, 0}, 10, SearchOptions{})
	if err != nil || len(got) != 3 {
		t.Fatalf("k>n returned %d results, %v", len(got), err)
	}
}

// TestQuantizedSearchMatchesFloat: int8 scoring must produce near-float
// rankings on well-separated data and scores within the quantisation
// bound.
func TestQuantizedSearchMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	s := NewStore()
	c, _ := s.Ensure("q", 64)
	ids := make([]string, 200)
	vecs := make([][]float32, 200)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%03d", i)
		vecs[i] = randVec(rng, 64)
	}
	if _, _, err := c.Upsert(ids, vecs); err != nil {
		t.Fatal(err)
	}
	q := randVec(rng, 64)
	exact, err := c.Search(q, 10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quant, err := c.Search(q, 10, SearchOptions{Quantized: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quantisation can swap near-ties; require ≥ 8/10 overlap and scores
	// within 2% absolute.
	in := map[string]float32{}
	for _, r := range exact {
		in[r.ID] = r.Score
	}
	overlap := 0
	for _, r := range quant {
		if s, ok := in[r.ID]; ok {
			overlap++
			if math.Abs(float64(s-r.Score)) > 0.02 {
				t.Errorf("%s: quantized score %g vs float %g", r.ID, r.Score, s)
			}
		}
	}
	if overlap < 8 {
		t.Errorf("quantized top-10 overlaps float top-10 on %d/10", overlap)
	}
}

// clusteredData draws n vectors around nclust Gaussian centers — the
// regime IVF exists for, and the corpus of the recall gate.
func clusteredData(rng *rand.Rand, n, dim, nclust int, spread float64) [][]float32 {
	centers := make([][]float64, nclust)
	for i := range centers {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.NormFloat64() * 3
		}
		centers[i] = c
	}
	out := make([][]float32, n)
	for i := range out {
		c := centers[rng.Intn(nclust)]
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(c[j] + rng.NormFloat64()*spread)
		}
		out[i] = v
	}
	return out
}

// recallAtK measures |ANN∩exact|/k averaged over queries.
func recallAtK(t *testing.T, c *Collection, queries [][]float32, k, nprobe int) float64 {
	t.Helper()
	hits := 0
	for _, q := range queries {
		exact, err := c.Search(q, k, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ann, err := c.Search(q, k, SearchOptions{NProbe: nprobe})
		if err != nil {
			t.Fatal(err)
		}
		in := map[string]bool{}
		for _, r := range exact {
			in[r.ID] = true
		}
		for _, r := range ann {
			if in[r.ID] {
				hits++
			}
		}
	}
	return float64(hits) / float64(k*len(queries))
}

// TestANNRecall is the acceptance gate: IVF recall@10 ≥ 0.9 against the
// brute-force oracle on seeded clustered data, at the parameters the
// EXPERIMENTS.md table records (k=16 centroids, nprobe=4).
func TestANNRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	s := NewStore()
	c, _ := s.Ensure("recall", 32)
	data := clusteredData(rng, 2000, 32, 16, 0.7)
	ids := make([]string, len(data))
	for i := range ids {
		ids[i] = fmt.Sprintf("v%04d", i)
	}
	if _, _, err := c.Upsert(ids, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(data[0], 5, SearchOptions{NProbe: 2}); err == nil {
		t.Fatal("ANN search before TrainANN must error")
	}
	if err := c.TrainANN(16, 1); err != nil {
		t.Fatal(err)
	}
	if k, n, ok := c.Trained(); !ok || k != 16 || n != 2000 {
		t.Fatalf("Trained = %d, %d, %v", k, n, ok)
	}
	queries := clusteredData(rng, 50, 32, 16, 0.7)
	if r := recallAtK(t, c, queries, 10, 4); r < 0.9 {
		t.Errorf("recall@10 = %.3f at nprobe=4, want ≥ 0.9", r)
	}
	// Probing every list IS the exact scan.
	if r := recallAtK(t, c, queries, 10, 16); r < 0.9999 {
		t.Errorf("recall@10 = %.3f at nprobe=k, want 1.0", r)
	}
	// Upserts re-bucket against frozen centroids; recall must survive.
	more := clusteredData(rng, 200, 32, 16, 0.7)
	mids := make([]string, len(more))
	for i := range mids {
		mids[i] = fmt.Sprintf("m%04d", i)
	}
	if _, _, err := c.Upsert(mids, more); err != nil {
		t.Fatal(err)
	}
	if r := recallAtK(t, c, queries, 10, 4); r < 0.85 {
		t.Errorf("recall@10 after upsert = %.3f, want ≥ 0.85", r)
	}
}

// TestSearchZeroAlloc pins the serving hot path: warm brute-force and ANN
// searches through a reused Searcher and result buffer must not allocate.
// Runs under the alloc gate (-run 'ZeroAlloc').
func TestSearchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	s := NewStore()
	c, _ := s.Ensure("hot", 64)
	data := clusteredData(rng, 500, 64, 8, 1)
	ids := make([]string, len(data))
	for i := range ids {
		ids[i] = fmt.Sprintf("v%04d", i)
	}
	if _, _, err := c.Upsert(ids, data); err != nil {
		t.Fatal(err)
	}
	if err := c.TrainANN(8, 1); err != nil {
		t.Fatal(err)
	}
	q := randVec(rng, 64)
	for _, tc := range []struct {
		name string
		opt  SearchOptions
	}{
		{"brute/cosine", SearchOptions{}},
		{"brute/dot", SearchOptions{Metric: MetricDot}},
		{"brute/int8", SearchOptions{Quantized: true}},
		{"ann/cosine", SearchOptions{NProbe: 2}},
		{"ann/int8", SearchOptions{NProbe: 2, Quantized: true}},
	} {
		sc := &Searcher{}
		dst := make([]Result, 0, 10)
		var err error
		dst, err = c.SearchInto(dst, sc, q, 10, tc.opt) // warm
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(30, func() {
			dst, err = c.SearchInto(dst, sc, q, 10, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: warm SearchInto allocates %.0f/op; want 0", tc.name, allocs)
		}
	}
}

// TestConcurrentUpsertSearch exercises the lock-free read path under
// -race: writers publish copy-on-write snapshots while readers score
// whatever snapshot they loaded — no torn reads, no stale-width results.
func TestConcurrentUpsertSearch(t *testing.T) {
	s := NewStore()
	c, _ := s.Ensure("conc", 16)
	seed := rand.New(rand.NewSource(56))
	base := clusteredData(seed, 100, 16, 4, 1)
	ids := make([]string, len(base))
	for i := range ids {
		ids[i] = fmt.Sprintf("v%03d", i)
	}
	if _, _, err := c.Upsert(ids, base); err != nil {
		t.Fatal(err)
	}
	if err := c.TrainANN(4, 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sc := &Searcher{}
			dst := make([]Result, 0, 5)
			for i := 0; i < 300; i++ {
				q := randVec(rng, 16)
				opt := SearchOptions{Quantized: i%2 == 0}
				if i%3 == 0 {
					opt.NProbe = 2
				}
				var err error
				dst, err = c.SearchInto(dst, sc, q, 5, opt)
				if err != nil {
					t.Error(err)
					return
				}
				if len(dst) != 5 {
					t.Errorf("got %d results", len(dst))
					return
				}
			}
		}(int64(100 + w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("w%d-%03d", seed, i%20)
				if _, _, err := c.Upsert([]string{id}, [][]float32{randVec(rng, 16)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(200 + w))
	}
	wg.Wait()
	if n := c.Len(); n != 100+2*20 {
		t.Errorf("Len = %d after concurrent upserts, want %d", n, 140)
	}
	_, vectors, queries, upserts := s.Totals()
	if vectors != 140 || queries == 0 || upserts == 0 {
		t.Errorf("Totals = %d vectors, %d queries, %d upserts", vectors, queries, upserts)
	}
}

// scaledVec draws values spread over many binades so that the order and
// rounding of every multiply and add shows in the result bits.
func scaledVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20))
	}
	return v
}

// TestDot4MatchesDot: the four-row kernel is bit-identical to Dot for every
// width 1–130 (every tail length), from every element offset of the rows'
// backing array.
func TestDot4MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for dim := 1; dim <= 130; dim++ {
		q := scaledVec(rng, dim)
		buf := scaledVec(rng, 4*dim+3)
		for off := 0; off < 4; off++ {
			var got [4]float32
			dot4(q, buf[off:], dim, &got)
			for j, g := range got {
				want := Dot(q, buf[off+j*dim:off+(j+1)*dim])
				if math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("dim %d offset %d row %d: dot4 %v (%#x), Dot %v (%#x)",
						dim, off, j, g, math.Float32bits(g), want, math.Float32bits(want))
				}
			}
		}
	}
}

// TestSearchMatchesPerRowDot: the exact float scan returns the top k of
// the per-row Dot scores, each id with its own row's score bits, for row
// counts around the four-row block (and one past 4096), widths not a
// multiple of four, both metrics, and zero-norm rows (cosine 0).
func TestSearchMatchesPerRowDot(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 4097} {
		for _, dim := range []int{1, 3, 13, 130} {
			if n > 9 && dim < 13 {
				continue
			}
			c, _ := NewStore().Ensure("ref", dim)
			ids := make([]string, n)
			vecs := make([][]float32, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("r%05d", i)
				vecs[i] = scaledVec(rng, dim)
				if i%5 == 2 {
					vecs[i] = make([]float32, dim)
				}
			}
			for lo := 0; lo < n; lo += MaxUpsertBatch {
				hi := min(lo+MaxUpsertBatch, n)
				if _, _, err := c.Upsert(ids[lo:hi], vecs[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			q := scaledVec(rng, dim)
			for _, m := range []Metric{MetricCosine, MetricDot} {
				ref := make([]Result, n)
				byID := map[string]float32{}
				for i, v := range vecs {
					s := Dot(q, v)
					if m == MetricCosine {
						if d := Norm(q) * Norm(v); d == 0 {
							s = 0
						} else {
							s /= d
						}
					}
					ref[i] = Result{ID: ids[i], Score: s}
					byID[ids[i]] = s
				}
				sort.SliceStable(ref, func(a, b int) bool { return ref[a].Score > ref[b].Score })
				for _, k := range []int{1, 5, n} {
					got, err := c.Search(q, k, SearchOptions{Metric: m})
					if err != nil {
						t.Fatal(err)
					}
					want := ref[:min(k, n)]
					if len(got) != len(want) {
						t.Fatalf("n %d dim %d %v k %d: %d results, want %d", n, dim, m, k, len(got), len(want))
					}
					// Which of several equal scores the heap keeps, and the
					// order they drain in, is the heap's: hold every result to
					// its own row's score bits, and the scores to the top k.
					for i, r := range got {
						if b := math.Float32bits(byID[r.ID]); b != math.Float32bits(r.Score) {
							t.Fatalf("n %d dim %d %v k %d: result %d = %s %v, per-row Dot %v", n, dim, m, k, i, r.ID, r.Score, byID[r.ID])
						}
						if math.Float32bits(r.Score) != math.Float32bits(want[i].Score) {
							t.Fatalf("n %d dim %d %v k %d: scores %v, want the top k %v", n, dim, m, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSearchHugeK: a k far above the row count returns every row on the
// exact and ANN paths — the heap is sized by the rows, not by k — and a
// warm search still does not allocate.
func TestSearchHugeK(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	c, _ := NewStore().Ensure("huge", 8)
	const n = 40
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("h%02d", i)
	}
	if _, _, err := c.Upsert(ids, clusteredData(rng, n, 8, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.TrainANN(4, 1); err != nil {
		t.Fatal(err)
	}
	q := randVec(rng, 8)
	for _, opt := range []SearchOptions{{}, {Quantized: true}, {NProbe: 4}} {
		for _, k := range []int{n + 1, 1 << 30, math.MaxInt / 2, math.MaxInt} {
			got, err := c.Search(q, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("%+v k %d: %d results, want %d", opt, k, len(got), n)
			}
		}
		sc, dst := &Searcher{}, make([]Result, 0, n)
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if dst, err = c.SearchInto(dst, sc, q, math.MaxInt, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%+v: warm SearchInto with a huge k allocates %.0f/op; want 0", opt, allocs)
		}
	}
}

// TestUpsertCopyOnWrite: a snapshot loaded before an update-only upsert
// keeps reading the old rows while sharing its id table with the next
// one, and a later upsert that adds an id copies that table instead of
// writing into it, and indexes the new id.
func TestUpsertCopyOnWrite(t *testing.T) {
	c, _ := NewStore().Ensure("cow", 2)
	if _, _, err := c.Upsert([]string{"a", "b"}, [][]float32{{1, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	old := c.snap.Load()
	if added, updated, err := c.Upsert([]string{"b"}, [][]float32{{3, 4}}); err != nil || added != 0 || updated != 1 {
		t.Fatalf("update-only upsert: added %d updated %d err %v", added, updated, err)
	}
	upd := c.snap.Load()
	if &upd.ids[0] != &old.ids[0] {
		t.Error("update-only upsert copied the id table")
	}
	if old.flat[2] != 0 || old.flat[3] != 1 || old.norms[1] != 1 {
		t.Errorf("old snapshot sees the update: row b = %v norm %v", old.flat[2:4], old.norms[1])
	}
	if upd.flat[2] != 3 || upd.flat[3] != 4 || upd.norms[1] != 5 {
		t.Errorf("new snapshot row b = %v norm %v; want [3 4] norm 5", upd.flat[2:4], upd.norms[1])
	}
	if added, _, err := c.Upsert([]string{"c", "a"}, [][]float32{{-1, 0}, {2, 0}}); err != nil || added != 1 {
		t.Fatalf("adding upsert: added %d err %v", added, err)
	}
	if _, ok := old.rows["c"]; ok || len(old.ids) != 2 || len(upd.rows) != 2 {
		t.Error("adding upsert wrote into the shared id table")
	}
	got, err := c.Search([]float32{-1, 0}, 1, SearchOptions{})
	if err != nil || len(got) != 1 || got[0].ID != "c" {
		t.Fatalf("search for the added id: %v %v", got, err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len %d; want 3", c.Len())
	}
}
