package embed

import "repro/internal/serve"

// Wire format e1 — the binary codec of the /v1/models/{id}/embed endpoint,
// selected by Content-Type exactly like wire format v1 on the infer
// endpoint. Both frames are plain row frames of serve's one tensor codec
// (layout and decode bounds documented in internal/serve/wire.go); this
// package owns only what names them:
//
//	"RQE1" request   count × dim × float64 — the model's native input dtype
//	"RSE1" response  count × dim × float32 — the vector tier's dtype

// WireContentType identifies wire-format e1 request bodies (and is echoed
// on e1 responses).
const WireContentType = "application/x-repro-embed-v1"

const (
	wireReqMagic  = 0x31455152 // "RQE1"
	wireRespMagic = 0x31455352 // "RSE1"
)

// AppendWireRequest appends one encoded e1 request to dst and returns the
// extended slice.
//
//repro:noalloc
func AppendWireRequest(dst []byte, inputs [][]float64) ([]byte, error) {
	return serve.AppendWireRows(dst, wireReqMagic, 8, inputs)
}

// ParseWireRequest decodes one e1 request held entirely in data; see
// serve.ParseWireRows for the scratch contract.
//
//repro:noalloc
func ParseWireRequest(data []byte, s *serve.WireRowsScratch) ([][]float64, error) {
	inputs, _, err := serve.ParseWireRows(data, wireReqMagic, 8, s)
	return inputs, err
}

// AppendWireResults appends one encoded e1 response to dst and returns the
// extended slice. vecs holds the embedding rows as the serving stack
// produces them (float64 result scores); the codec narrows each value to
// float32.
//
//repro:noalloc
func AppendWireResults(dst []byte, vecs [][]float64) ([]byte, error) {
	return serve.AppendWireRows(dst, wireRespMagic, 4, vecs)
}

// ParseWireResults decodes one e1 response held entirely in data into
// float32 rows; see serve.ParseWireRows for the scratch contract.
//
//repro:noalloc
func ParseWireResults(data []byte, s *serve.WireRowsScratch) ([][]float32, error) {
	_, vecs, err := serve.ParseWireRows(data, wireRespMagic, 4, s)
	return vecs, err
}
