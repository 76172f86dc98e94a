package stream

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/serve"
)

func frameSeed(t testing.TB, typ uint8, id uint64, payload []byte) []byte {
	t.Helper()
	b, err := AppendFrame(nil, typ, id, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzDecodeStreamFrame drives the RPS2 frame decoder and both payload
// parsers with arbitrary bytes: nothing may panic, a hostile length field
// must not make the decoder allocate past MaxFramePayload, and whatever
// decodes must re-encode to the identical consumed bytes (the framing is
// canonical).
func FuzzDecodeStreamFrame(f *testing.F) {
	f.Add([]byte{})
	req, err := appendRequestPayload(nil, "mnist@v1", 50*time.Millisecond, [][]float64{{1, 2, 3}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameSeed(f, FrameRequest, 7, req))
	resp, err := serve.AppendWireResults(nil, []serve.Result{{Class: 2, Scores: []float64{0.1, 0.9}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameSeed(f, FrameResponse, 7, resp))
	f.Add(frameSeed(f, FrameStatus, 9, appendStatusPayload(nil, 429, 25*time.Millisecond, "inflight")))
	f.Add(frameSeed(f, FrameGoAway, 0, nil))
	valid := frameSeed(f, FrameRequest, 1, req)
	f.Add(valid[:10])              // truncated header
	f.Add(valid[:len(valid)-2])    // truncated payload
	f.Add(append(valid, valid...)) // two frames back to back
	bad := append([]byte(nil), valid...)
	bad[5] = 0x80 // reserved flags set
	f.Add(bad)
	bad = append([]byte(nil), valid...)
	bad[4] = 9 // unknown type
	f.Add(bad)
	hostile := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(hostile[0:], FrameMagic)
	hostile[4] = FrameRequest
	binary.LittleEndian.PutUint32(hostile[14:], 0xFFFFFFFF) // 4 GiB length claim
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var fr Frame
		if err := DecodeFrame(r, &fr); err != nil {
			return
		}
		if len(fr.Payload) > MaxFramePayload {
			t.Fatalf("decoded a %d-byte payload past the %d-byte bound", len(fr.Payload), MaxFramePayload)
		}
		consumed := len(data) - r.Len()
		reenc, err := AppendFrame(nil, fr.Type, fr.ID, fr.Payload)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(reenc, data[:consumed]) {
			t.Fatalf("frame round trip changed bytes: consumed %d, re-encoded %d", consumed, len(reenc))
		}

		// The payload parsers see every frame the reader loops hand them;
		// they must be as total as the frame decoder itself.
		switch fr.Type {
		case FrameRequest:
			route, deadline, wire, err := parseRequestPayload(fr.Payload)
			if err != nil {
				return
			}
			if len(route) < 1 || len(route) > MaxRouteLen {
				t.Fatalf("parsed route length %d outside [1, %d]", len(route), MaxRouteLen)
			}
			if 2+len(route)+4+len(wire) != len(fr.Payload) {
				t.Fatalf("request payload split loses bytes: %d+%d of %d", len(route), len(wire), len(fr.Payload))
			}
			var scratch serve.WireRowsScratch
			inputs, err := serve.ParseWireRequest(wire, &scratch)
			if err != nil {
				return
			}
			rp, err := appendRequestPayload(nil, string(route), deadline, inputs)
			if err != nil {
				t.Fatalf("parsed request payload does not re-encode: %v", err)
			}
			if !bytes.Equal(rp, fr.Payload) {
				t.Fatal("request payload round trip changed bytes")
			}
		case FrameStatus:
			code, retryAfter, msg, err := parseStatusPayload(fr.Payload)
			if err != nil {
				return
			}
			if len(msg) > MaxStatusMsgLen {
				t.Fatalf("parsed status message of %d bytes past the %d-byte bound", len(msg), MaxStatusMsgLen)
			}
			sp := appendStatusPayload(nil, code, retryAfter, string(msg))
			if !bytes.Equal(sp, fr.Payload) {
				t.Fatal("status payload round trip changed bytes")
			}
		}
	})
}
