package vector

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// Bounds on what the HTTP layer will accept into a store. MaxDim is far
// above any embedding the repo produces; it exists to bound what a
// hostile PUT can demand.
const (
	// MaxDim is the largest per-vector width a collection may have.
	MaxDim = 1 << 14
	// MaxIDLen bounds one vector id's length in bytes.
	MaxIDLen = 256
	// MaxUpsertBatch bounds the number of vectors in one Upsert call.
	MaxUpsertBatch = 4096
)

// Metric selects the similarity score.
type Metric uint8

const (
	// MetricCosine scores by cosine similarity (dot over the norm
	// product; zero-norm vectors score 0).
	MetricCosine Metric = iota
	// MetricDot scores by the raw inner product.
	MetricDot
)

func (m Metric) String() string {
	if m == MetricDot {
		return "dot"
	}
	return "cosine"
}

// ParseMetric maps the wire spellings ("cosine", "dot", "") onto a
// Metric; the empty string defaults to cosine.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "", "cosine":
		return MetricCosine, nil
	case "dot":
		return MetricDot, nil
	}
	return MetricCosine, fmt.Errorf("vector: unknown metric %q (want \"cosine\" or \"dot\")", s)
}

// snapshot is one immutable version of a collection's contents. Queries
// atomically load the current snapshot and never take a lock: writers
// build a fresh snapshot under the collection's writer mutex and publish
// it with a single pointer swap, so a search always sees a consistent
// (ids, flat, norms, quantised mirror, index) tuple.
type snapshot struct {
	ids   []string
	rows  map[string]int32 // id → row, for upsert-in-place
	flat  []float32        // n×dim, row-major
	norms []float32        // per-row L2 norms (cosine denominators)

	q8      []int8    // n×dim symmetric int8 mirror
	qscales []float32 // per-row quantisation scales

	ivf *ivfIndex // nil until TrainANN
}

//repro:noalloc
func (s *snapshot) n() int { return len(s.ids) }

// Collection is one named set of same-width vectors.
type Collection struct {
	name string
	dim  int

	writer sync.Mutex // serialises snapshot builds (upsert, train)
	snap   atomic.Pointer[snapshot]

	queries atomic.Uint64
	upserts atomic.Uint64
}

// Store is the process-wide collection table.
type Store struct {
	mu   sync.RWMutex
	cols map[string]*Collection
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{cols: make(map[string]*Collection)} }

// validateCollectionName applies the same character restrictions as model
// names — collection names travel in /v1/vectors/{collection} URLs.
func validateCollectionName(name string) error {
	if name == "" {
		return fmt.Errorf("vector: empty collection name")
	}
	if len(name) > MaxIDLen {
		return fmt.Errorf("vector: collection name longer than %d bytes", MaxIDLen)
	}
	for i := 0; i < len(name); i++ {
		switch name[i] {
		case '@', '/', '?', '#', '%', ' ', '\t', '\n':
			return fmt.Errorf("vector: collection name %q contains '@', '/', '?', '#', '%%' or whitespace", name)
		}
	}
	return nil
}

// Ensure returns the named collection, creating it with the given width
// on first use. A width mismatch against an existing collection is an
// error — the first writer fixes a collection's dimension for its life.
func (s *Store) Ensure(name string, dim int) (*Collection, error) {
	if err := validateCollectionName(name); err != nil {
		return nil, err
	}
	if dim < 1 || dim > MaxDim {
		return nil, fmt.Errorf("vector: dimension %d outside [1, %d]", dim, MaxDim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.cols[name]; ok {
		if c.dim != dim {
			return nil, fmt.Errorf("vector: collection %q has dimension %d, not %d", name, c.dim, dim)
		}
		return c, nil
	}
	c := &Collection{name: name, dim: dim}
	c.snap.Store(&snapshot{rows: map[string]int32{}})
	s.cols[name] = c
	return c, nil
}

// Get returns the named collection if it exists.
func (s *Store) Get(name string) (*Collection, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.cols[name]
	return c, ok
}

// Names returns the collection names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.cols))
	for n := range s.cols {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Totals aggregates the store for the metrics gauges: collection count,
// resident vectors, and lifetime query/upsert counts.
func (s *Store) Totals() (collections, vectors int, queries, upserts uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.cols {
		collections++
		vectors += c.snap.Load().n()
		queries += c.queries.Load()
		upserts += c.upserts.Load()
	}
	return
}

// Name returns the collection's name.
func (c *Collection) Name() string { return c.name }

// Dim returns the collection's fixed vector width.
func (c *Collection) Dim() int { return c.dim }

// Len returns the number of resident vectors.
func (c *Collection) Len() int { return c.snap.Load().n() }

// Trained reports whether an ANN index is live, and its shape.
func (c *Collection) Trained() (k, n int, ok bool) {
	sn := c.snap.Load()
	if sn.ivf == nil {
		return 0, sn.n(), false
	}
	return sn.ivf.k, sn.n(), true
}

// Upsert inserts or overwrites vectors by id, copy-on-write: readers keep
// scoring the previous snapshot until the new one is published. Vectors
// are copied in; the caller keeps ownership of vecs. A batch that adds no
// id shares the previous snapshot's id table. If an ANN index is
// trained, its inverted lists are rebuilt against the existing centroids
// (the centroids themselves only move on TrainANN — retrain after bulk
// loads that shift the distribution).
func (c *Collection) Upsert(ids []string, vecs [][]float32) (added, updated int, err error) {
	if len(ids) != len(vecs) {
		return 0, 0, fmt.Errorf("vector: %d ids for %d vectors", len(ids), len(vecs))
	}
	if len(ids) == 0 {
		return 0, 0, fmt.Errorf("vector: empty upsert")
	}
	if len(ids) > MaxUpsertBatch {
		return 0, 0, fmt.Errorf("vector: upsert of %d vectors exceeds %d", len(ids), MaxUpsertBatch)
	}
	for i, id := range ids {
		if id == "" || len(id) > MaxIDLen {
			return 0, 0, fmt.Errorf("vector: id %d is empty or longer than %d bytes", i, MaxIDLen)
		}
		if len(vecs[i]) != c.dim {
			return 0, 0, fmt.Errorf("vector: vector %d has width %d, collection %q is %d-wide", i, len(vecs[i]), c.name, c.dim)
		}
	}
	c.writer.Lock()
	defer c.writer.Unlock()
	cur := c.snap.Load()

	// Resolve every id to its row first. Published arrays and maps are
	// immutable, so an update-only batch shares the id table; the first new
	// id copies it.
	next := &snapshot{ids: cur.ids, rows: cur.rows}
	at := make([]int32, len(ids))
	for i, id := range ids {
		row, exists := next.rows[id]
		if !exists {
			if added == 0 {
				next.ids = append(make([]string, 0, len(cur.ids)+len(ids)), cur.ids...)
				next.rows = maps.Clone(cur.rows)
			}
			row = int32(len(next.ids))
			next.ids = append(next.ids, id)
			next.rows[id] = row
			added++
		} else {
			updated++
		}
		at[i] = row
	}
	n := next.n()
	next.flat = make([]float32, n*c.dim)
	copy(next.flat, cur.flat)
	next.norms = make([]float32, n)
	copy(next.norms, cur.norms)
	next.q8 = make([]int8, n*c.dim)
	copy(next.q8, cur.q8)
	next.qscales = make([]float32, n)
	copy(next.qscales, cur.qscales)
	for i, row := range at {
		dst := next.flat[int(row)*c.dim : (int(row)+1)*c.dim]
		copy(dst, vecs[i])
		next.norms[row] = Norm(dst)
		next.qscales[row] = quantizeInt8(next.q8[int(row)*c.dim:(int(row)+1)*c.dim], dst)
	}
	if cur.ivf != nil {
		next.ivf = cur.ivf.rebucket(next.flat, c.dim)
	}
	c.snap.Store(next)
	c.upserts.Add(uint64(len(ids)))
	return added, updated, nil
}

// TrainANN builds (or rebuilds) the coarse-quantiser index over the
// current contents: k centroids trained by seeded Lloyd iterations, each
// vector bucketed to its nearest centroid. Queries opt in per call via
// SearchOptions.NProbe. Requires at least k resident vectors.
func (c *Collection) TrainANN(k int, seed int64) error {
	if k < 1 {
		return fmt.Errorf("vector: TrainANN k %d < 1", k)
	}
	c.writer.Lock()
	defer c.writer.Unlock()
	cur := c.snap.Load()
	if cur.n() < k {
		return fmt.Errorf("vector: TrainANN k %d over %d vectors", k, cur.n())
	}
	next := *cur // arrays are immutable once published; share them
	next.ivf = trainIVF(cur.flat, c.dim, k, seed)
	c.snap.Store(&next)
	return nil
}
