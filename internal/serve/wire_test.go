package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestWireGoldenBytes pins wire compatibility with pre-unification
// clients: frames produced by the original RPI1/RPO1 encoders, hard-coded
// here, must decode to the values they were built from and re-encode to
// the same bytes. (The RQE1/RSE1 twins are pinned in internal/embed, whose
// magics they exercise.)
func TestWireGoldenBytes(t *testing.T) {
	const (
		rpi1 = "525049310200000002000000" + // "RPI1", count 2, dim 2
			"000000000000f03f" + "00000000000004c0" + // 1, -2.5
			"9a9999999999b93f" + "000000b08ef01b42" // 0.1, 3e10
		rpo1 = "52504f310200000002000000" + // "RPO1", count 2, classes 2
			"01000000" + "04000000" + "00" + "000000000000d03f" + "000000000000e83f" + // class 1, batch 4, uncached, 0.25 0.75
			"00000000" + "00000000" + "01" + "000000000000f0bf" + "000000000000e03f" // class 0, batch 0, cached, -1 0.5
	)
	req, err := hex.DecodeString(rpi1)
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := ParseWireRequest(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, -2.5}, {0.1, 3e10}}
	if len(inputs) != 2 || inputs[0][0] != want[0][0] || inputs[0][1] != want[0][1] ||
		inputs[1][0] != want[1][0] || inputs[1][1] != want[1][1] {
		t.Errorf("RPI1 decoded %v, want %v", inputs, want)
	}
	if reenc, err := AppendWireRequest(nil, inputs); err != nil || !bytes.Equal(reenc, req) {
		t.Errorf("RPI1 re-encoded to %x (err %v), want %x", reenc, err, req)
	}

	resp, err := hex.DecodeString(rpo1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ParseWireResults(resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRes := []Result{
		{Class: 1, Scores: []float64{0.25, 0.75}, BatchSize: 4},
		{Class: 0, Scores: []float64{-1, 0.5}, Cached: true},
	}
	if len(results) != 2 {
		t.Fatalf("RPO1 decoded %d results, want 2", len(results))
	}
	for i, w := range wantRes {
		g := results[i]
		if g.Class != w.Class || g.BatchSize != w.BatchSize || g.Cached != w.Cached ||
			len(g.Scores) != 2 || g.Scores[0] != w.Scores[0] || g.Scores[1] != w.Scores[1] {
			t.Errorf("RPO1 result %d decoded %+v, want %+v", i, g, w)
		}
	}
	if reenc, err := AppendWireResults(nil, results); err != nil || !bytes.Equal(reenc, resp) {
		t.Errorf("RPO1 re-encoded to %x (err %v), want %x", reenc, err, resp)
	}
}

func TestWireRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]float64, 7)
	for i := range inputs {
		inputs[i] = make([]float64, 33)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	// Exact bit patterns must survive, including the edge values float
	// text formats mangle.
	inputs[0][0] = math.Inf(1)
	inputs[0][1] = math.Copysign(0, -1)
	inputs[0][2] = math.SmallestNonzeroFloat64

	enc, err := AppendWireRequest(nil, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 12 + 8*7*33; len(enc) != want {
		t.Errorf("encoded size %d, want %d", len(enc), want)
	}
	var s WireRowsScratch
	got, err := ParseWireRequest(enc, &s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(inputs) {
		t.Fatalf("decoded %d inputs, want %d", len(got), len(inputs))
	}
	for i := range inputs {
		for j := range inputs[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(inputs[i][j]) {
				t.Fatalf("input %d[%d]: %x, want %x", i, j,
					math.Float64bits(got[i][j]), math.Float64bits(inputs[i][j]))
			}
		}
	}
	// Warm parses through a scratch must be allocation-free.
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParseWireRequest(enc, &s); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("warm ParseWireRequest allocates %.0f/op; want 0", allocs)
	}
}

// TestWireRowsFloat32RoundTrip covers the narrowing element width (the
// embed response's): values come back as the float32 they were narrowed
// to, at 4 bytes each, and warm parses allocate nothing.
func TestWireRowsFloat32RoundTrip(t *testing.T) {
	vecs := [][]float64{{0.5, -1.25}, {3, 4}}
	enc, err := AppendWireRows(nil, embedRespMagic, 4, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 12 + 4*2*2; len(enc) != want {
		t.Fatalf("encoded %d bytes, want %d", len(enc), want)
	}
	var s WireRowsScratch
	rows64, parsed, err := ParseWireRows(enc, embedRespMagic, 4, &s)
	if err != nil {
		t.Fatal(err)
	}
	if rows64 != nil {
		t.Error("width-4 parse also returned float64 rows")
	}
	for i := range vecs {
		for j := range vecs[i] {
			if parsed[i][j] != float32(vecs[i][j]) {
				t.Fatalf("value [%d][%d] did not round-trip", i, j)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ParseWireRows(enc, embedRespMagic, 4, &s); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("warm width-4 ParseWireRows allocates %.0f/op; want 0", allocs)
	}
	// A frame is only its own format's: same bytes, other magic or width.
	if _, _, err := ParseWireRows(enc, embedReqMagic, 8, nil); err == nil {
		t.Error("RSE1 frame parsed as RQE1")
	}
	if _, _, err := ParseWireRows(enc, embedRespMagic, 8, nil); err == nil {
		t.Error("RSE1 frame parsed at width 8")
	}
	if _, _, err := ParseWireRows(enc, embedRespMagic, 2, nil); err == nil {
		t.Error("element width 2 accepted")
	}
}

func TestWireResultsRoundTrip(t *testing.T) {
	results := []Result{
		{Class: 3, Scores: []float64{0.1, -2, 3.5}, BatchSize: 16},
		{Class: 0, Scores: []float64{9, 8, 7}, BatchSize: 0, Cached: true},
	}
	enc, err := AppendWireResults(nil, results)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseWireResults(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d results", len(got))
	}
	for i, res := range results {
		if got[i].Class != res.Class || got[i].BatchSize != res.BatchSize || got[i].Cached != res.Cached {
			t.Errorf("result %d header: %+v, want %+v", i, got[i], res)
		}
		for j := range res.Scores {
			if got[i].Scores[j] != res.Scores[j] {
				t.Errorf("result %d score %d: %g, want %g", i, j, got[i].Scores[j], res.Scores[j])
			}
		}
	}
}

func TestWireEncodeValidation(t *testing.T) {
	if _, err := AppendWireRequest(nil, nil); err == nil {
		t.Error("empty request encoded")
	}
	if _, err := AppendWireRequest(nil, [][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged request encoded")
	}
	// Encode enforces the decode-side bounds, so a request that encodes
	// never bounces off a decoder.
	if _, err := AppendWireRequest(nil, [][]float64{{}}); err == nil {
		t.Error("zero-dim request encoded")
	}
	if _, err := AppendWireRequest(nil, make([][]float64, MaxWireInputs+1)); err == nil {
		t.Error("oversize-count request encoded")
	}
	if _, err := AppendWireRows(nil, wireReqMagic, 2, [][]float64{{1}}); err == nil {
		t.Error("element width 2 encoded")
	}
	if _, err := AppendWireResults(nil, nil); err == nil {
		t.Error("empty response encoded")
	}
	if _, err := AppendWireResults(nil, []Result{{Scores: []float64{1}}, {Scores: []float64{1, 2}}}); err == nil {
		t.Error("ragged response encoded")
	}
}

// TestWireDecodeRejectsMalformed drives the row decoder through the abuse
// cases the HTTP and stream layers forward to it: bad magic, hostile
// counts and dims, truncation at every boundary, trailing bytes.
func TestWireDecodeRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		b, err := AppendWireRequest(nil, [][]float64{{1, 2}, {3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cases := map[string][]byte{
		"empty":           {},
		"short header":    valid()[:8],
		"truncated body":  valid()[:len(valid())-1],
		"header only":     valid()[:12],
		"trailing bytes":  append(valid(), 0xAA),
		"bad magic":       append([]byte("XXXX"), valid()[4:]...),
		"response as req": func() []byte { b := valid(); binary.LittleEndian.PutUint32(b, wireRespMagic); return b }(),
	}
	hostile := valid()
	binary.LittleEndian.PutUint32(hostile[4:], 1<<30) // count
	cases["hostile count"] = hostile
	hostile2 := valid()
	binary.LittleEndian.PutUint32(hostile2[8:], 1<<30) // dim
	cases["hostile dim"] = hostile2
	// count and dim individually in range, but multiplying to 2 GiB: the
	// product bound must refuse before allocating anything.
	hostile3 := valid()
	binary.LittleEndian.PutUint32(hostile3[4:], MaxWireInputs)
	binary.LittleEndian.PutUint32(hostile3[8:], MaxWireDim)
	cases["hostile product"] = hostile3
	zero := valid()
	binary.LittleEndian.PutUint32(zero[4:], 0)
	cases["zero count"] = zero

	for name, body := range cases {
		var scratch WireRowsScratch
		if _, err := ParseWireRequest(body, &scratch); err == nil {
			t.Errorf("%s: parsed without error", name)
		} else if !strings.HasPrefix(err.Error(), "serve:") {
			t.Errorf("%s: error %q not from serve", name, err)
		}
	}
}

// TestWireResultsDecodeRejectsMalformed is the response-codec twin,
// covering every header and record field: magic, count, classes, the
// count×classes product bound, truncation at each boundary, plus the
// per-record hardening — class or batch_size past int32 (which would wrap
// negative on 32-bit platforms) and a cached flag other than 0 or 1.
func TestWireResultsDecodeRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		b, err := AppendWireResults(nil, []Result{
			{Class: 1, Scores: []float64{0.25, 0.75}, BatchSize: 4},
			{Class: 0, Scores: []float64{0.5, 0.5}, Cached: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	mut := func(f func(b []byte)) []byte {
		b := valid()
		f(b)
		return b
	}
	const rec0 = 12 // first record offset: class u32 | batch u32 | cached u8 | scores

	cases := map[string][]byte{
		"empty":          {},
		"short header":   valid()[:8],
		"header only":    valid()[:12],
		"truncated body": valid()[:len(valid())-1],
		"trailing bytes": append(valid(), 0x00),
		"bad magic":      mut(func(b []byte) { copy(b, "XXXX") }),
		"request as resp": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b, wireReqMagic)
		}),
		"zero count":    mut(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 0) }),
		"hostile count": mut(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 1<<30) }),
		"zero classes":  mut(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) }),
		"hostile classes": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 1<<30)
		}),
		"hostile product": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:], MaxWireInputs)
			binary.LittleEndian.PutUint32(b[8:], MaxWireDim)
		}),
		"class wraps int32": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[rec0:], 0x80000000)
		}),
		"batch wraps int32": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[rec0+4:], 0xFFFFFFFF)
		}),
		"cached flag 2":    mut(func(b []byte) { b[rec0+8] = 2 }),
		"cached flag 0xFF": mut(func(b []byte) { b[rec0+8] = 0xFF }),
	}

	for name, body := range cases {
		var scratch WireResultsScratch
		if _, err := ParseWireResults(body, &scratch); err == nil {
			t.Errorf("%s: parsed without error", name)
		} else if !strings.HasPrefix(err.Error(), "serve:") {
			t.Errorf("%s: error %q not from serve", name, err)
		}
	}
	// cached flag 1 (not just 0) must still decode — the hardening rejects
	// >1, not truthiness.
	if res, err := ParseWireResults(valid(), nil); err != nil || !res[1].Cached {
		t.Errorf("valid response with cached=1: res=%v err=%v", res, err)
	}
}
