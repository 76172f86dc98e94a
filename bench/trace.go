package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded by the benchmark around the calls it makes into each
// layer's public functions — nothing inside the program is instrumented.
// Each generator goroutine owns a preallocated ring, so recording is a
// store and never allocates; the rings are merged and written when the
// run ends.

type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the start of the first measured window
	End     int64  `json:"end_ns"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"` // 0 for a request's root span
	Request uint64 `json:"request"`
}

const spanRingSize = 1 << 13

// sampleEvery is the share of serving-workload requests that record spans.
const sampleEvery = 16

type spanRing struct {
	buf  []span
	n    uint64
	base uint64 // lane id in the high bits keeps ids unique across rings
	t0   time.Time
}

func newSpanRing(lane int, t0 time.Time) *spanRing {
	return &spanRing{buf: make([]span, spanRingSize), base: uint64(lane+1) << 40, t0: t0}
}

// nextID reserves an id, for a parent span that is recorded after its
// children (its end is only known then).
func (r *spanRing) nextID() uint64 {
	r.n++
	return r.base | r.n
}

// put records a finished span under an id reserved with nextID.
func (r *spanRing) put(id uint64, name string, start, end time.Time, parent, request uint64) {
	r.buf[id&(spanRingSize-1)] = span{
		Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
		ID: id, Parent: parent, Request: request,
	}
}

// add records one finished span.
func (r *spanRing) add(name string, start, end time.Time, parent, request uint64) {
	r.put(r.nextID(), name, start, end, parent, request)
}

func (r *spanRing) spans() []span {
	var out []span
	for _, s := range r.buf {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// traceFile is the layout of <out>/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func writeTrace(outDir, workload string, seed int64, rings []*spanRing) (string, error) {
	tf := traceFile{
		Workload: workload, Seed: seed,
		Note: "times are ns since the first measured window; spans of one request share `request`; " +
			"a span's self time is its duration minus its children's; only traced (odd) windows record",
	}
	for _, r := range rings {
		tf.Spans = append(tf.Spans, r.spans()...)
	}
	sort.Slice(tf.Spans, func(i, j int) bool { return tf.Spans[i].Start < tf.Spans[j].Start })
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
