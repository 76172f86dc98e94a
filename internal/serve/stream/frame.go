// Package stream is wire v2: the RPS2 length-prefixed streaming protocol
// that carries the binary inference codec (internal/serve wire format v1)
// over persistent TCP connections. Where wire v1 rides one HTTP round
// trip per request, an RPS2 connection multiplexes many in-flight frames
// — each tagged with a client-chosen request id and a model route — so a
// single connection keeps the coalescing batch scheduler fed, responses
// complete out of order as batches finish, and a GOAWAY handshake drains
// pipelined work without dropping any of it during rolling model swaps.
//
// Frame layout (all integers little-endian):
//
//	magic   uint32  0x32535052 ("RPS2")
//	type    uint8   frame type (Frame* constants)
//	flags   uint8   reserved, must be 0
//	id      uint64  request id (client-chosen, echoed on the response)
//	length  uint32  payload bytes (≤ MaxFramePayload)
//	payload length bytes
//
// Payloads by type:
//
//	FrameRequest   routeLen uint16 | route | deadlineUS uint32 | wire-v1 request (RPI1)
//	FrameResponse  wire-v1 response (RPO1)
//	FrameStatus    code uint16 | retryAfterMS uint32 | msgLen uint16 | msg
//	FrameGoAway    empty
//
// route is a "name" or "name@version" model identifier; deadlineUS is the
// request's latency budget in microseconds from server receipt (0 = no
// deadline), which the batch scheduler uses to shed work already past its
// SLO. FrameStatus answers a request that was not executed — its code
// mirrors the HTTP mapping (400 malformed, 404 unknown model, 408
// deadline exceeded, 429 shed by admission control with a Retry-After
// hint, 503 server closing). FrameGoAway is the drain handshake: the
// server sends it to announce "finish what is in flight, start nothing
// new"; the client answers with its own GOAWAY once every pipelined
// response has arrived, and the connection closes with zero lost frames.
package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/serve"
)

// FrameMagic opens every RPS2 frame ("RPS2" little-endian).
const FrameMagic = 0x32535052

// Frame types.
const (
	// FrameRequest carries one routed wire-v1 inference request.
	FrameRequest = 1
	// FrameResponse carries the wire-v1 results for the id it echoes.
	FrameResponse = 2
	// FrameStatus answers a request without executing it (shed, unknown
	// route, malformed payload, ...).
	FrameStatus = 3
	// FrameGoAway is the drain handshake frame; its id is 0.
	FrameGoAway = 4
)

const (
	// frameHeaderLen is the fixed RPS2 frame header size.
	frameHeaderLen = 18
	// MaxFramePayload bounds one frame's payload: the wire codec's own
	// cap plus the request frame's route-and-deadline prefix.
	MaxFramePayload = serve.MaxWireBytes + 6 + MaxRouteLen
	// MaxRouteLen bounds the model route ("name@version") in a request
	// frame.
	MaxRouteLen = 256
	// MaxStatusMsgLen bounds a status frame's message.
	MaxStatusMsgLen = 1024
)

// Frame is one decoded RPS2 frame. Payload is owned by the Frame and
// reused across DecodeFrame calls — receivers copy what they keep.
type Frame struct {
	Type    uint8
	ID      uint64
	Payload []byte

	// hdr is the header read scratch. A local array would escape into the
	// io.ReadFull interface call and cost one heap allocation per frame;
	// living in the reused Frame it is allocated once per connection.
	hdr [frameHeaderLen]byte
}

// beginFrame appends an RPS2 frame header for (typ, id) to dst with a
// zero length field; finishFrame patches the length once the payload has
// been appended. The pair lets encoders build header and payload in one
// buffer without knowing the payload size up front.
//
//repro:noalloc
func beginFrame(dst []byte, typ uint8, id uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, FrameMagic)
	dst = append(dst, typ, 0)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return dst
}

// finishFrame patches the length field of the frame begun at start.
//
//repro:noalloc
func finishFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+14:], uint32(len(dst)-start-frameHeaderLen))
	return dst
}

// goAwayFrame is the one GOAWAY frame either end ever sends.
var goAwayFrame = finishFrame(beginFrame(nil, FrameGoAway, 0), 0)

// AppendFrame appends one complete RPS2 frame to dst.
//
//repro:noalloc
func AppendFrame(dst []byte, typ uint8, id uint64, payload []byte) ([]byte, error) {
	if typ < FrameRequest || typ > FrameGoAway {
		return dst, fmt.Errorf("stream: unknown frame type %d", typ)
	}
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("stream: frame payload of %d bytes exceeds %d", len(payload), MaxFramePayload)
	}
	start := len(dst)
	dst = beginFrame(dst, typ, id)
	dst = append(dst, payload...)
	return finishFrame(dst, start), nil
}

// DecodeFrame reads one RPS2 frame into f, reusing f.Payload's storage.
// Malformed headers — bad magic, unknown type, nonzero reserved flags, a
// length past MaxFramePayload — are errors; so is a truncated payload.
// The payload cap never grows past the header's (validated) length claim,
// so a hostile 4 GiB length field cannot make the decoder allocate it.
//
//repro:noalloc
func DecodeFrame(r io.Reader, f *Frame) error {
	hdr := f.hdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err // io.EOF between frames is a clean close
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != FrameMagic {
		return fmt.Errorf("stream: bad frame magic %#x (want \"RPS2\")", m)
	}
	typ := hdr[4]
	if typ < FrameRequest || typ > FrameGoAway {
		return fmt.Errorf("stream: unknown frame type %d", typ)
	}
	if hdr[5] != 0 {
		return fmt.Errorf("stream: reserved frame flags %#x (want 0)", hdr[5])
	}
	length := int(binary.LittleEndian.Uint32(hdr[14:]))
	if length > MaxFramePayload {
		return fmt.Errorf("stream: frame payload of %d bytes exceeds %d", length, MaxFramePayload)
	}
	f.Type = typ
	f.ID = binary.LittleEndian.Uint64(hdr[6:])
	if cap(f.Payload) < length {
		f.Payload = make([]byte, length)
	}
	f.Payload = f.Payload[:length]
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return fmt.Errorf("stream: frame payload truncated: %w", err)
	}
	return nil
}

// appendRequestPayload appends a request frame's payload: route prefix,
// deadline budget, then the encoded wire-v1 request. A positive budget is
// encoded within the field's range: under 1 µs as 1 µs (0 would mean no
// deadline), above 2³²−1 µs (≈ 71.6 min) as 2³²−1 µs — a budget that
// long only ever lets the server shed later than the client gives up.
//
//repro:noalloc
func appendRequestPayload(dst []byte, route string, deadline time.Duration, inputs [][]float64) ([]byte, error) {
	if route == "" || len(route) > MaxRouteLen {
		return dst, fmt.Errorf("stream: route length %d outside [1, %d]", len(route), MaxRouteLen)
	}
	us := int64(0)
	if deadline > 0 {
		us = min(max(deadline.Microseconds(), 1), int64(^uint32(0)))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(route)))
	dst = append(dst, route...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(us))
	return serve.AppendWireRequest(dst, inputs)
}

// parseRequestPayload splits a request frame's payload into its route,
// deadline budget and embedded wire-v1 request bytes. The returned slices
// alias p.
//
//repro:noalloc
func parseRequestPayload(p []byte) (route []byte, deadline time.Duration, wire []byte, err error) {
	if len(p) < 2 {
		return nil, 0, nil, fmt.Errorf("stream: request payload truncated: %d bytes", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p[0:]))
	if n < 1 || n > MaxRouteLen {
		return nil, 0, nil, fmt.Errorf("stream: route length %d outside [1, %d]", n, MaxRouteLen)
	}
	if len(p) < 2+n+4 {
		return nil, 0, nil, fmt.Errorf("stream: request payload truncated after route: %d bytes", len(p))
	}
	route = p[2 : 2+n]
	deadline = time.Duration(binary.LittleEndian.Uint32(p[2+n:])) * time.Microsecond
	wire = p[2+n+4:]
	return route, deadline, wire, nil
}

// appendStatusPayload appends a status frame's payload.
//
//repro:noalloc
func appendStatusPayload(dst []byte, code int, retryAfter time.Duration, msg string) []byte {
	if len(msg) > MaxStatusMsgLen {
		msg = msg[:MaxStatusMsgLen]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(code))
	ms := retryAfter.Milliseconds()
	if ms < 0 || ms > int64(^uint32(0)) {
		ms = 0
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ms))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// parseStatusPayload splits a status frame's payload. msg aliases p.
//
//repro:noalloc
func parseStatusPayload(p []byte) (code int, retryAfter time.Duration, msg []byte, err error) {
	if len(p) < 8 {
		return 0, 0, nil, fmt.Errorf("stream: status payload truncated: %d bytes", len(p))
	}
	code = int(binary.LittleEndian.Uint16(p[0:]))
	retryAfter = time.Duration(binary.LittleEndian.Uint32(p[2:])) * time.Millisecond
	n := int(binary.LittleEndian.Uint16(p[6:]))
	if n > MaxStatusMsgLen || len(p) != 8+n {
		return 0, 0, nil, fmt.Errorf("stream: status payload of %d bytes, header describes %d", len(p), 8+n)
	}
	return code, retryAfter, p[8:], nil
}
