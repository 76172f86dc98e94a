package platform

// Memory-mapped file support for the engine's parameter files. The paper's
// deployment story (§V) targets devices where RSS is the binding
// constraint; mapping parameter files read-only lets one process host many
// models while the OS pages weights in on demand and shares clean pages
// across processes. The syscall shim lives behind build tags so the rest
// of the repo stays portable: on non-Unix platforms MapFile degrades to a
// heap read with the same API (Mapped reports which one you got).

// Mapping is a read-only view of a file's contents. Close releases the
// mapping; the data must not be used after Close, and must never be
// written through (on mapped platforms the pages are PROT_READ and a
// write faults).
type Mapping struct {
	data   []byte
	mapped bool
}

// Bytes returns the mapped contents. The slice is valid until Close.
func (m *Mapping) Bytes() []byte { return m.data }

// Len returns the mapping's size in bytes.
func (m *Mapping) Len() int { return len(m.data) }

// Mapped reports whether the data is a true zero-copy file mapping
// (false on the heap-read fallback and for empty files).
func (m *Mapping) Mapped() bool { return m.mapped }
