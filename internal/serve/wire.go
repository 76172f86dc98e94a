package serve

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire format v1 — the compact binary request/response codec for high-QPS
// clients, carried over the same /v1/models/{id}/infer and …/embed
// endpoints as JSON and selected by Content-Type (requests) / echoed back
// (responses). Every frame is one 12-byte header followed by count
// fixed-size rows; all integers are little-endian, floats are IEEE-754
// bits:
//
//	magic   uint32  names the frame (below)
//	count   uint32  number of rows (≥ 1)
//	dim     uint32  float elements per row
//	rows    count × row
//
//	"RPI1" 0x31495052  infer request    row = dim × float64
//	"RPO1" 0x314F5052  infer response   row = class uint32 (argmax index)
//	                                        | batch_size uint32 (0 = cache hit)
//	                                        | cached uint8 (0 or 1)
//	                                        | dim × float64 scores
//	"RQE1" 0x31455152  embed request    row = dim × float64
//	"RSE1" 0x31455352  embed response   row = dim × float32
//
// The three plain row frames share one encoder and one decoder
// (AppendWireRows, ParseWireRows) parameterised by magic and element
// width; RPO1 layers its per-result record on the same header and bounds
// check. internal/embed owns the two embed magics and wraps the row codec.
//
// The fixed layout makes one encoded request exactly 12 + 8·count·dim
// bytes — for a 256-feature input that is 2060 bytes against ~4.9 KB of
// JSON, and decoding is a bounds check plus a byte-order pass instead of a
// float parser per value. The embed response deliberately narrows to
// float32: embeddings feed cosine top-k search, where float32 keeps full
// ranking fidelity at half the bytes, and it is the dtype internal/vector
// stores — a client can PUT a decoded response straight into a collection.

// WireContentType is the Content-Type identifying wire-format v1 infer
// bodies (RPI1 requests, RPO1 responses).
const WireContentType = "application/x-repro-infer-v1"

const (
	wireReqMagic  = 0x31495052 // "RPI1"
	wireRespMagic = 0x314F5052 // "RPO1"

	wireHeaderLen = 12
	// wireResultFixed is the integer prefix of one RPO1 row: class,
	// batch_size, cached.
	wireResultFixed = 9
)

// Wire-format decode bounds, mirroring the JSON limits: a single post may
// not fan out more batch slots or decode more bytes than the server is
// willing to hold for one client.
const (
	// MaxWireInputs is the largest number of rows one wire frame may carry.
	MaxWireInputs = 256
	// MaxWireDim is the largest per-row element count accepted on decode
	// (far above any architecture in the repo; it exists to bound the
	// allocation a hostile header can demand).
	MaxWireDim = 1 << 20
	// MaxWireBytes bounds the total decoded frame size: a 12-byte header
	// whose count and dim each pass their range checks may still multiply
	// to gigabytes, so the product is bounded too (in 64-bit arithmetic,
	// which also keeps count·dim·width from overflowing int on 32-bit
	// platforms). Matches the HTTP layer's body cap.
	MaxWireBytes = 64 << 20
	// maxWireIntField bounds the uint32 per-result integer fields (class,
	// batch_size) on decode: any larger value would wrap negative when
	// converted to int on a 32-bit platform, so a hostile response could
	// smuggle a negative Class or BatchSize through the codec. No honest
	// encoder emits values near this (classes ≤ MaxWireDim, batches ≤
	// MaxWireInputs in practice).
	maxWireIntField = 1<<31 - 1
)

// wireName renders a magic as its four ASCII characters for error text.
func wireName(magic uint32) string {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], magic)
	return string(b[:])
}

// wireFrameLen applies the header bounds every frame shares, on encode
// and decode alike, and returns the frame's exact byte length. A row is
// fixed + width·dim bytes, elements float64 (width 8) or float32 (4).
//
//repro:noalloc
func wireFrameLen(magic uint32, count, dim, fixed, width int) (int, error) {
	if width != 8 && width != 4 {
		return 0, fmt.Errorf("serve: wire element width %d (want 8 or 4)", width)
	}
	if count < 1 || count > MaxWireInputs {
		return 0, fmt.Errorf("serve: wire %s count %d outside [1, %d]", wireName(magic), count, MaxWireInputs)
	}
	if dim < 1 || dim > MaxWireDim {
		return 0, fmt.Errorf("serve: wire %s dim %d outside [1, %d]", wireName(magic), dim, MaxWireDim)
	}
	need := wireHeaderLen + int64(count)*(int64(fixed)+int64(width)*int64(dim))
	if need > MaxWireBytes {
		return 0, fmt.Errorf("serve: wire %s frame of %d bytes exceeds the %d-byte limit", wireName(magic), need, MaxWireBytes)
	}
	return int(need), nil
}

// appendWireHeader appends an already-validated frame header.
//
//repro:noalloc
func appendWireHeader(dst []byte, magic uint32, count, dim int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	return binary.LittleEndian.AppendUint32(dst, uint32(dim))
}

// parseWireHeader checks a frame held entirely in data — magic, header
// bounds, and a length that matches the header exactly — and returns its
// count and dim. Truncated frames and trailing bytes are both rejected: in
// a length-delimited carrier (a stream frame, a capped HTTP body) extra
// bytes can only be garbage.
//
//repro:noalloc
func parseWireHeader(data []byte, magic uint32, fixed, width int) (count, dim int, err error) {
	if len(data) < wireHeaderLen {
		return 0, 0, fmt.Errorf("serve: wire %s header truncated: %d bytes", wireName(magic), len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != magic {
		return 0, 0, fmt.Errorf("serve: bad wire magic %#x (want %q)", m, wireName(magic))
	}
	count = int(binary.LittleEndian.Uint32(data[4:]))
	dim = int(binary.LittleEndian.Uint32(data[8:]))
	want, err := wireFrameLen(magic, count, dim, fixed, width)
	if err != nil {
		return 0, 0, err
	}
	if len(data) != want {
		return 0, 0, fmt.Errorf("serve: wire %s frame of %d bytes, header describes %d", wireName(magic), len(data), want)
	}
	return count, dim, nil
}

// AppendWireRows appends one plain row frame — header plus count × dim
// elements — to dst and returns the extended slice. width is the element
// size on the wire: 8 writes each value's float64 bits, 4 narrows it to
// float32. All rows must share one non-zero length; the decode-side bounds
// are enforced here too, so a frame that encodes is one every decoder
// accepts rather than a remote 400.
//
//repro:noalloc
func AppendWireRows(dst []byte, magic uint32, width int, rows [][]float64) ([]byte, error) {
	if len(rows) == 0 {
		return dst, fmt.Errorf("serve: wire %s frame needs at least one row", wireName(magic))
	}
	dim := len(rows[0])
	if _, err := wireFrameLen(magic, len(rows), dim, 0, width); err != nil {
		return dst, err
	}
	for i, row := range rows {
		if len(row) != dim {
			return dst, fmt.Errorf("serve: wire %s row %d has %d elements, row 0 has %d", wireName(magic), i, len(row), dim)
		}
	}
	dst = appendWireHeader(dst, magic, len(rows), dim)
	for _, row := range rows {
		if width == 8 {
			for _, v := range row {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		} else {
			for _, v := range row {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
			}
		}
	}
	return dst, nil
}

// WireRowsScratch is reusable decode storage for ParseWireRows: one
// scratch per decoding goroutine makes the steady-state decode
// allocation-free. The zero value is ready to use.
type WireRowsScratch struct {
	flat64 []float64
	rows64 [][]float64
	flat32 []float32
	rows32 [][]float32
}

// ParseWireRows decodes one plain row frame held entirely in data. width
// selects the element type and with it which result is set: 8 decodes
// float64 rows, 4 decodes float32 rows; the other result is nil. The rows
// are views into the scratch, valid until its next Parse; a nil scratch
// allocates fresh storage.
//
//repro:noalloc
func ParseWireRows(data []byte, magic uint32, width int, s *WireRowsScratch) ([][]float64, [][]float32, error) {
	count, dim, err := parseWireHeader(data, magic, 0, width)
	if err != nil {
		return nil, nil, err
	}
	if s == nil {
		s = &WireRowsScratch{}
	}
	body := data[wireHeaderLen:]
	if width == 4 {
		if cap(s.flat32) < count*dim {
			s.flat32 = make([]float32, count*dim)
		}
		flat := s.flat32[:count*dim]
		for i := range flat {
			flat[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
		if cap(s.rows32) < count {
			s.rows32 = make([][]float32, count)
		}
		rows := s.rows32[:count]
		for i := range rows {
			rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		}
		return nil, rows, nil
	}
	if cap(s.flat64) < count*dim {
		s.flat64 = make([]float64, count*dim)
	}
	flat := s.flat64[:count*dim]
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	if cap(s.rows64) < count {
		s.rows64 = make([][]float64, count)
	}
	rows := s.rows64[:count]
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows, nil, nil
}

// AppendWireRequest appends one encoded RPI1 request to dst and returns
// the extended slice — the form the streaming layer embeds in RPS2 frames
// and an HTTP client posts as a body.
//
//repro:noalloc
func AppendWireRequest(dst []byte, inputs [][]float64) ([]byte, error) {
	return AppendWireRows(dst, wireReqMagic, 8, inputs)
}

// ParseWireRequest decodes one RPI1 request held entirely in data (a
// stream frame payload or an HTTP body); see ParseWireRows for the scratch
// contract.
//
//repro:noalloc
func ParseWireRequest(data []byte, s *WireRowsScratch) ([][]float64, error) {
	inputs, _, err := ParseWireRows(data, wireReqMagic, 8, s)
	return inputs, err
}

// AppendWireResults appends one encoded RPO1 response to dst and returns
// the extended slice. All results must have the same non-zero score width,
// and every integer field must survive the decoder's hardening checks —
// the decode-side bounds are enforced here so an encoded response is
// always decodable.
//
//repro:noalloc
func AppendWireResults(dst []byte, results []Result) ([]byte, error) {
	if len(results) == 0 {
		return dst, fmt.Errorf("serve: wire response needs at least one result")
	}
	classes := len(results[0].Scores)
	if _, err := wireFrameLen(wireRespMagic, len(results), classes, wireResultFixed, 8); err != nil {
		return dst, err
	}
	for i, res := range results {
		if len(res.Scores) != classes {
			return dst, fmt.Errorf("serve: wire result %d has %d scores, result 0 has %d", i, len(res.Scores), classes)
		}
		if res.Class < 0 || res.Class > maxWireIntField {
			return dst, fmt.Errorf("serve: wire result %d class %d outside [0, %d]", i, res.Class, maxWireIntField)
		}
		if res.BatchSize < 0 || res.BatchSize > maxWireIntField {
			return dst, fmt.Errorf("serve: wire result %d batch_size %d outside [0, %d]", i, res.BatchSize, maxWireIntField)
		}
	}
	dst = appendWireHeader(dst, wireRespMagic, len(results), classes)
	for _, res := range results {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(res.Class))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(res.BatchSize))
		if res.Cached {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		for _, v := range res.Scores {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// WireResultsScratch is reusable decode storage for ParseWireResults: the
// result headers and per-result score rows are retained across calls, so
// a long-lived client connection decodes responses without allocating.
// The zero value is ready to use.
type WireResultsScratch struct {
	results []Result
	scores  []float64
}

// ParseWireResults decodes one RPO1 response held entirely in data. The
// returned results (and their score slices) are views into the scratch,
// valid until its next Parse; a nil scratch allocates fresh storage. Each
// record is hardened: class and batch_size must fit a 32-bit int (a larger
// uint32 would wrap negative on 32-bit platforms), and the cached flag
// must be exactly 0 or 1 (any other byte is a malformed frame, not a
// creative truthy value).
//
//repro:noalloc
func ParseWireResults(data []byte, s *WireResultsScratch) ([]Result, error) {
	count, classes, err := parseWireHeader(data, wireRespMagic, wireResultFixed, 8)
	if err != nil {
		return nil, err
	}
	if s == nil {
		s = &WireResultsScratch{}
	}
	if cap(s.results) < count {
		s.results = make([]Result, count)
	}
	if cap(s.scores) < count*classes {
		s.scores = make([]float64, count*classes)
	}
	results := s.results[:count]
	rec := data[wireHeaderLen:]
	for i := range results {
		class := binary.LittleEndian.Uint32(rec[0:])
		batch := binary.LittleEndian.Uint32(rec[4:])
		if class > maxWireIntField {
			return nil, fmt.Errorf("serve: wire result class %d exceeds %d", class, uint32(maxWireIntField))
		}
		if batch > maxWireIntField {
			return nil, fmt.Errorf("serve: wire result batch_size %d exceeds %d", batch, uint32(maxWireIntField))
		}
		if rec[8] > 1 {
			return nil, fmt.Errorf("serve: wire result cached flag %d (want 0 or 1)", rec[8])
		}
		scores := s.scores[i*classes : (i+1)*classes : (i+1)*classes]
		for j := range scores {
			scores[j] = math.Float64frombits(binary.LittleEndian.Uint64(rec[wireResultFixed+8*j:]))
		}
		results[i] = Result{Class: int(class), BatchSize: int(batch), Cached: rec[8] == 1, Scores: scores}
		rec = rec[wireResultFixed+8*classes:]
	}
	return results, nil
}
