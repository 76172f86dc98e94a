package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzz seeds: valid frames of every format plus the hostile shapes the
// hardening checks exist for. The fuzzer mutates from here into the
// interesting corners (header/body length disagreements, huge counts,
// wrapped 32-bit fields, bad cached flags).

// The embed magics, pinned here by value: internal/embed owns the
// constants, but the decoder that reads them is this package's.
const (
	embedReqMagic  = 0x31455152 // "RQE1"
	embedRespMagic = 0x31455352 // "RSE1"
)

// rowFormats are the three plain row frames ParseWireRows decodes.
var rowFormats = []struct {
	magic uint32
	width int
}{
	{wireReqMagic, 8},
	{embedReqMagic, 8},
	{embedRespMagic, 4},
}

func wireRowsSeed(t testing.TB, magic uint32, width int, rows [][]float64) []byte {
	t.Helper()
	b, err := AppendWireRows(nil, magic, width, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func wireResultsSeed(t testing.TB, results []Result) []byte {
	t.Helper()
	b, err := AppendWireResults(nil, results)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func widen(rows [][]float32) [][]float64 {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = make([]float64, len(row))
		for j, x := range row {
			out[i][j] = float64(x)
		}
	}
	return out
}

// FuzzParseWireRows drives the one row decoder, as each of the three
// formats it serves (RPI1, RQE1, RSE1), with arbitrary bytes: no input may
// panic, nothing past MaxWireBytes may decode, and whatever decodes must
// re-encode canonically. For the float64 formats that is byte-exact
// (payloads travel as raw bits, so the comparison is NaN-safe). The
// float32 format narrows through float64 on encode, and Go does not
// promise NaN payload bits survive a float32→float64→float32 bridge — so
// there the check is idempotence: one re-encode may canonicalise NaN
// payloads, but re-encoding ITS parse must reproduce it exactly, and the
// frame geometry must never change.
func FuzzParseWireRows(f *testing.F) {
	f.Add([]byte{})
	for _, rf := range rowFormats {
		f.Add(wireRowsSeed(f, rf.magic, rf.width, [][]float64{{1, 2, 3}}))
		f.Add(wireRowsSeed(f, rf.magic, rf.width, [][]float64{{0.5, -1.25}}))
		f.Add(wireRowsSeed(f, rf.magic, rf.width, [][]float64{{math.NaN(), math.Inf(1)}, {0, math.Copysign(0, -1)}}))
		f.Add(wireRowsSeed(f, rf.magic, rf.width, [][]float64{{math.NaN(), math.Inf(-1)}, {0, 1e30}}))
		valid := wireRowsSeed(f, rf.magic, rf.width, [][]float64{{0.5, -0.5}})
		f.Add(valid[:5])
		f.Add(valid[:7])            // truncated header
		f.Add(valid[:len(valid)-1]) // truncated body
		f.Add(valid[:len(valid)-3])
		f.Add(append(valid[:len(valid):len(valid)], 0xAA)) // trailing garbage
		f.Add(append(valid[:len(valid):len(valid)], 0x00))
		hostile := make([]byte, 12)
		binary.LittleEndian.PutUint32(hostile[0:], rf.magic)
		binary.LittleEndian.PutUint32(hostile[4:], 0xFFFFFFFF) // count wraps negative as int32
		binary.LittleEndian.PutUint32(hostile[8:], 0xFFFFFFFF)
		f.Add(append([]byte(nil), hostile...))
		binary.LittleEndian.PutUint32(hostile[4:], 1<<16) // count*dim overflows MaxWireBytes
		binary.LittleEndian.PutUint32(hostile[8:], 1<<16)
		f.Add(append([]byte(nil), hostile...))
		binary.LittleEndian.PutUint32(hostile[4:], 1<<17)
		binary.LittleEndian.PutUint32(hostile[8:], 1<<17)
		f.Add(append([]byte(nil), hostile...))
		binary.LittleEndian.PutUint32(hostile[4:], 0) // zero count
		binary.LittleEndian.PutUint32(hostile[8:], 0)
		f.Add(append([]byte(nil), hostile...))
	}
	// Another format's magic on each decoder.
	f.Add([]byte("RPO1\x01\x00\x00\x00"))
	f.Add([]byte("RSE1\x01\x00\x00\x00"))
	f.Add([]byte("RQE1\x01\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch WireRowsScratch
		for _, rf := range rowFormats {
			rows64, rows32, err := ParseWireRows(data, rf.magic, rf.width, &scratch)
			if err != nil {
				continue
			}
			name := wireName(rf.magic)
			if len(data) > MaxWireBytes {
				t.Fatalf("%s: decoded a %d-byte frame past the %d-byte bound", name, len(data), MaxWireBytes)
			}
			if rf.width == 8 {
				reenc, err := AppendWireRows(nil, rf.magic, 8, rows64)
				if err != nil {
					t.Fatalf("%s: decoded frame does not re-encode: %v", name, err)
				}
				if !bytes.Equal(reenc, data) {
					t.Fatalf("%s: round trip changed bytes: %d in, %d out", name, len(data), len(reenc))
				}
				continue
			}
			reenc, err := AppendWireRows(nil, rf.magic, 4, widen(rows32))
			if err != nil {
				t.Fatalf("%s: decoded frame does not re-encode: %v", name, err)
			}
			if len(reenc) != len(data) {
				t.Fatalf("%s: round trip changed size: %d in, %d out", name, len(data), len(reenc))
			}
			_, again, err := ParseWireRows(reenc, rf.magic, 4, nil)
			if err != nil {
				t.Fatalf("%s: re-encoded frame does not parse: %v", name, err)
			}
			reenc2, err := AppendWireRows(nil, rf.magic, 4, widen(again))
			if err != nil {
				t.Fatalf("%s: second re-encode failed: %v", name, err)
			}
			if !bytes.Equal(reenc, reenc2) {
				t.Fatalf("%s: re-encoding is not idempotent", name)
			}
		}
	})
}

// FuzzParseWireResults is the RPO1 twin: arbitrary bytes must not panic
// the decoder, the hardening checks (cached byte ∈ {0,1}, class/batch_size
// within int32) hold, and decoded responses re-encode canonically.
func FuzzParseWireResults(f *testing.F) {
	f.Add([]byte{})
	f.Add(wireResultsSeed(f, []Result{{Class: 3, Scores: []float64{0.1, 0.2, 0.7}, BatchSize: 4}}))
	f.Add(wireResultsSeed(f, []Result{
		{Class: 0, Scores: []float64{math.NaN(), math.Inf(-1)}, Cached: true},
		{Class: 1, Scores: []float64{1, 2}, BatchSize: maxWireIntField},
	}))
	valid := wireResultsSeed(f, []Result{{Class: 1, Scores: []float64{0.5, 0.5}}})
	f.Add(valid[:5])
	f.Add(valid[:len(valid)-1])
	f.Add(append(valid, 0x00))
	bad := append([]byte(nil), valid...)
	bad[12+8] = 2 // cached flag other than 0/1
	f.Add(bad)
	bad = append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(bad[12:], 0x80000000) // class wraps negative on 32-bit
	f.Add(bad)
	hostile := make([]byte, 12)
	binary.LittleEndian.PutUint32(hostile[0:], wireRespMagic)
	binary.LittleEndian.PutUint32(hostile[4:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(hostile[8:], 0xFFFFFFFF)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch WireResultsScratch
		results, err := ParseWireResults(data, &scratch)
		if err != nil {
			return
		}
		if len(data) > MaxWireBytes {
			t.Fatalf("decoded a %d-byte response past the %d-byte bound", len(data), MaxWireBytes)
		}
		for i, r := range results {
			if r.Class < 0 || r.BatchSize < 0 {
				t.Fatalf("result %d decoded with negative field: class=%d batch=%d", i, r.Class, r.BatchSize)
			}
		}
		reenc, err := AppendWireResults(nil, results)
		if err != nil {
			t.Fatalf("decoded response does not re-encode: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("response round trip changed bytes: %d in, %d out", len(data), len(reenc))
		}
	})
}
