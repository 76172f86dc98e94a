package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/program"
)

// Store is an opened artifact directory: the parsed index plus the blob
// mappings of every model loaded so far. Mappings are retained until
// Close — a loaded model's weights alias its mapping, so unmapping early
// would pull live memory out from under a serving replica.
type Store struct {
	dir     string
	entries []Entry

	mu     sync.Mutex
	maps   []*platform.Mapping
	loaded map[string]model.Model // id → shared-weight model, idempotent Load
}

// Open reads and validates dir's index. Blob files are not touched until
// Load — opening a store of tens of models costs one small file read.
func Open(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := ParseIndex(data)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, entries: entries, loaded: make(map[string]model.Model)}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Entries returns a copy of the index.
func (s *Store) Entries() []Entry { return append([]Entry(nil), s.entries...) }

// Find returns the entry for name@version.
func (s *Store) Find(name, version string) (Entry, bool) {
	for i := range s.entries {
		if s.entries[i].Name == name && s.entries[i].Version == version {
			return s.entries[i], true
		}
	}
	return Entry{}, false
}

// float64View reinterprets mapped bytes as float64 values in place. The
// blob format puts raw little-endian float64 at offset 0 of the file, so
// a page-aligned mapping is always 8-byte aligned; the checks guard the
// heap-read fallback and corrupt files.
func float64View(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("store: blob of %d bytes is not a whole number of float64s", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, fmt.Errorf("store: blob mapping is not 8-byte aligned")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// checksum is the index's blob digest: FNV-64a over the file bytes.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash.Write never errors
	return h.Sum64()
}

// Load maps name@version's blob and returns a servable model whose
// parameters alias the mapping — zero copies, nothing weight-sized on the
// heap. The blob is checksummed on first load (one sequential pass, which
// also faults the pages in), the architecture text is parsed into a
// freshly structured network, and every parameter tensor is rebound to
// its slice of the mapped view with its OnUpdate hook fired so derived
// state (circulant spectra) is rebuilt. Load is idempotent per id: the
// registry can hot-load the same artifact repeatedly without stacking
// mappings. Replicas of a typed-op program (Arch-1/2) share the read-only
// network, so every serving replica reads the same mapped pages; a program
// with fallback layers (conv/pool) deep-copies it per replica instead (see
// model.New).
func (s *Store) Load(name, version string) (model.Model, error) {
	e, ok := s.Find(name, version)
	if !ok {
		return nil, fmt.Errorf("store: no entry %s in %s", model.ID(name, version), s.dir)
	}
	id := e.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.loaded[id]; ok {
		return m, nil
	}
	mp, err := platform.MapFile(filepath.Join(s.dir, e.Blob))
	if err != nil {
		return nil, err
	}
	ok = false
	defer func() {
		if !ok {
			_ = mp.Close()
		}
	}()
	data := mp.Bytes()
	if len(data) != 8*e.Params {
		return nil, fmt.Errorf("store: %s blob %s holds %d bytes, index describes %d", id, e.Blob, len(data), 8*e.Params)
	}
	if got := checksum(data); got != e.Checksum {
		return nil, fmt.Errorf("store: %s blob %s checksum %#x, index says %#x (corrupt artifact)", id, e.Blob, got, e.Checksum)
	}
	// The architecture text defines the structure; the rng only seeds
	// initial weights, every one of which is rebound below.
	eng, err := engine.ParseArchitecture(strings.NewReader(e.Arch), rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", id, err)
	}
	if len(eng.InShape) != len(e.InShape) {
		return nil, fmt.Errorf("store: %s architecture input shape %v, index says %v", id, eng.InShape, e.InShape)
	}
	for i := range e.InShape {
		if eng.InShape[i] != e.InShape[i] {
			return nil, fmt.Errorf("store: %s architecture input shape %v, index says %v", id, eng.InShape, e.InShape)
		}
	}
	view, err := float64View(data)
	if err != nil {
		return nil, err
	}
	if err := bindParams(eng.Net, view); err != nil {
		return nil, fmt.Errorf("store: %s: %w", id, err)
	}
	m, err := model.New(name, version, eng.Net, program.CompileOptions{InShape: e.InShape})
	if err != nil {
		return nil, err
	}
	ok = true
	s.maps = append(s.maps, mp)
	s.loaded[id] = m
	return m, nil
}

// bindParams rebinds every parameter tensor of net to consecutive slices
// of view (Network.Params() order, the blob layout) and fires the update
// hooks that rebuild derived state.
func bindParams(net *nn.Network, view []float64) error {
	off := 0
	for i, p := range net.Params() {
		n := p.Value.Len()
		if off+n > len(view) {
			return fmt.Errorf("parameter %d (%s) needs %d values at offset %d, blob holds %d", i, p.Name, n, off, len(view))
		}
		p.Value.Data = view[off : off+n : off+n]
		off += n
		if p.OnUpdate != nil {
			p.OnUpdate()
		}
	}
	if off != len(view) {
		return fmt.Errorf("blob holds %d values, architecture needs %d", len(view), off)
	}
	return nil
}

// Mapped reports how many blob mappings are live and whether all of them
// are true file mappings (false on the non-mmap fallback).
func (s *Store) Mapped() (n int, allMapped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	allMapped = true
	for _, m := range s.maps {
		n++
		if !m.Mapped() {
			allMapped = false
		}
	}
	return n, allMapped
}

// Close unmaps every loaded blob. Models returned by Load must not be
// used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, m := range s.maps {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.maps = nil
	s.loaded = make(map[string]model.Model)
	return first
}

func appendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// PackModel is one model to write into a store directory.
type PackModel struct {
	Name    string
	Version string
	Net     *nn.Network
	InShape []int
}

// Pack writes a store directory: one raw-float64 blob per model plus the
// checksummed index, written last and atomically (temp file + rename), so
// a crashed pack never leaves a valid-looking index naming garbage blobs.
func Pack(dir string, models []PackModel) error {
	if len(models) == 0 {
		return fmt.Errorf("store: nothing to pack")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries := make([]Entry, 0, len(models))
	for i := range models {
		pm := &models[i]
		arch, err := engine.ExportArchitecture(pm.Net, pm.InShape)
		if err != nil {
			return fmt.Errorf("store: packing %s: %w", model.ID(pm.Name, pm.Version), err)
		}
		var blob []byte
		for _, p := range pm.Net.Params() {
			for _, v := range p.Value.Data {
				blob = appendFloat64(blob, v)
			}
		}
		e := Entry{
			Name:     pm.Name,
			Version:  pm.Version,
			InShape:  append([]int(nil), pm.InShape...),
			Arch:     arch,
			Blob:     pm.Name + "@" + pm.Version + ".w64",
			Params:   len(blob) / 8,
			Checksum: checksum(blob),
		}
		if err := validateEntry(&e); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Blob), blob, 0o644); err != nil {
			return err
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID() < entries[j].ID() })
	idx, err := AppendIndex(nil, entries)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, IndexFile+".tmp")
	if err := os.WriteFile(tmp, idx, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, IndexFile))
}
