// Package httpapi is the HTTP inference front end, written once: body cap,
// media-type switch, wire or JSON decode, input validation, concurrent
// fan-out, encode, and the error write. cmd/serve mounts it for /infer
// and /embed over a *serve.Registry, internal/router mounts it for /infer
// over the fleet — both are a stream.Backend, so a client cannot tell a
// router from a single process by its responses. Its one-pass JSON reader
// (ReadJSON) decodes every request body cmd/serve accepts, the vector
// API's too. It lives beside internal/serve rather than in it so the
// serving core stays free of net/http.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/embed"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/serve/stream"
)

// Abuse bounds for one inference post: a request fans out one goroutine
// per input, so both the count and the decoded body size must be capped or
// a single client post could exhaust the process. Both caps are the wire
// format's limits, so the two codecs admit the same load per post and a
// wire request that passes the decoder's size check is never truncated by
// MaxBytesReader.
const (
	MaxInputs    = serve.MaxWireInputs
	MaxBodyBytes = serve.MaxWireBytes
)

// Format is what differs between the inference endpoints: the binary
// content type with its request decoder and response encoder, the JSON
// response shapes, and the model name a path id resolves to. There are
// exactly two, Infer and Embed.
type Format struct {
	contentType string
	// route maps the path's base model name to the served model's.
	route         func(name string) string
	parse         func(data []byte, s *serve.WireRowsScratch) ([][]float64, error)
	appendResults func(dst []byte, results []serve.Result) ([]byte, error)
	// single and multi shape the JSON answer to an "input" and an "inputs"
	// post.
	single func(res serve.Result) any
	multi  func(results []serve.Result) any
}

// Infer is POST /v1/models/{id}/infer: RPI1 → RPO1 in wire format v1,
// a serve.Result / {"results": [...]} in JSON.
var Infer = &Format{
	contentType:   serve.WireContentType,
	route:         func(name string) string { return name },
	parse:         serve.ParseWireRequest,
	appendResults: serve.AppendWireResults,
	single:        func(res serve.Result) any { return res },
	multi:         func(results []serve.Result) any { return map[string]any{"results": results} },
}

// Embed is POST /v1/models/{id}/embed: the id names the *base* model and
// is rewritten to the derived "<name>.embed" identity (internal/embed), so
// batching, versions and the "latest" alias all apply exactly as on
// /infer. RQE1 → RSE1 in wire format e1 (float32 rows, the vector tier's
// dtype), {"embedding","dim"} / {"embeddings","dim"} in JSON.
var Embed = &Format{
	contentType: embed.WireContentType,
	route:       embed.ModelName,
	parse:       embed.ParseWireRequest,
	appendResults: func(dst []byte, results []serve.Result) ([]byte, error) {
		return embed.AppendWireResults(dst, vectors(results))
	},
	single: func(res serve.Result) any {
		return map[string]any{"embedding": res.Scores, "dim": len(res.Scores)}
	},
	multi: func(results []serve.Result) any {
		return map[string]any{"embeddings": vectors(results), "dim": len(results[0].Scores)}
	},
}

// vectors strips results down to their score rows — the embeddings.
func vectors(results []serve.Result) [][]float64 {
	vecs := make([][]float64, len(results))
	for i := range results {
		vecs[i] = results[i].Scores
	}
	return vecs
}

// Request is the JSON body of an /infer or /embed post: either a single
// input vector or a list of them.
type Request struct {
	Input  []float64   `json:"input,omitempty"`
	Inputs [][]float64 `json:"inputs,omitempty"`
}

// DecodeMember implements JSONObject.
func (req *Request) DecodeMember(d *JSONDecoder) {
	switch d.Field("input", "inputs") {
	case 0:
		req.Input = d.Float64s(req.Input)
	case 1:
		req.Inputs = d.Float64Rows(req.Inputs)
	}
}

// bufPool recycles the body buffer of a post: the body is read into it, and
// once parsed (both decoders copy out) a wire post's encoded response
// reuses the same storage. Buffers above maxPooledBuf (a batch post, a bulk
// upsert) are left to the collector: pooled, every such body would stay
// resident for the life of the process.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 64 << 10

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// Handler answers single- and multi-input posts to one "{id}" mount in
// JSON or the format's binary codec (selected by Content-Type; the
// response mirrors the request). Multiple inputs are submitted
// concurrently so the batching scheduler can coalesce them into shared
// forward passes. Malformed payloads and wrong input dimensions are
// structured 400 responses, unknown models 404, an unavailable backend
// 503; a request shed by ctrl (nil admits everything) is a 429 with a
// Retry-After header, before the body is even read. admitted, when
// non-nil, counts the posts that got past admission.
func Handler(b stream.Backend, f *Format, ctrl *admission.Controller, admitted *metrics.Counter) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name, version := model.ParseID(r.PathValue("id"))
		name = f.route(name)
		if ctrl != nil {
			ticket, err := ctrl.Admit(name)
			if err != nil {
				WriteError(w, err)
				return
			}
			defer ticket.Release()
		}
		if admitted != nil {
			admitted.Inc()
		}
		body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		// Compare the media type proper, ignoring parameters, so a client
		// library that appends ";charset=..." still reaches the wire decoder.
		mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
		if mediaType == f.contentType {
			f.serveWire(w, r, body, b, name, version)
			return
		}

		var req Request
		if err := ReadJSON(body, &req); err != nil {
			WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
			return
		}
		if len(req.Inputs) > MaxInputs {
			WriteJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("%d inputs in one request, limit %d", len(req.Inputs), MaxInputs),
			})
			return
		}
		if req.Input != nil && len(req.Inputs) > 0 {
			WriteJSON(w, http.StatusBadRequest, map[string]string{"error": `body sets both "input" and "inputs"; use one`})
			return
		}
		switch {
		case req.Input != nil:
			// The common post: answered on this goroutine, no fan-out.
			res, err := b.InferInto(r.Context(), name, version, req.Input, nil)
			if err != nil {
				WriteError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, f.single(res))
		case len(req.Inputs) > 0:
			results, err := inferAll(r.Context(), b, name, version, req.Inputs)
			if err != nil {
				WriteError(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, f.multi(results))
		default:
			WriteJSON(w, http.StatusBadRequest, map[string]string{"error": `need "input" or "inputs"`})
		}
	}
}

// serveWire answers a post in the format's binary codec.
func (f *Format) serveWire(w http.ResponseWriter, r *http.Request, body io.Reader, b stream.Backend, name, version string) {
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(body); err != nil {
		WriteJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("reading wire request: %w", err)))
		return
	}
	inputs, err := f.parse(buf.Bytes(), nil)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, errorBody(err))
		return
	}
	results, err := inferAll(r.Context(), b, name, version, inputs)
	if err != nil {
		WriteError(w, err)
		return
	}
	buf.Reset()
	out, err := f.appendResults(buf.AvailableBuffer(), results)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, errorBody(err))
		return
	}
	w.Header().Set("Content-Type", f.contentType)
	if _, err := w.Write(out); err != nil {
		log.Printf("writing wire response: %v", err)
	}
}

// inferAll submits every input concurrently — behind a router each may
// land on a different backend — and returns the results in input order, or
// the first error.
func inferAll(ctx context.Context, b stream.Backend, name, version string, inputs [][]float64) ([]serve.Result, error) {
	results := make([]serve.Result, len(inputs))
	errs := make([]error, len(inputs))
	done := make(chan struct{}, len(inputs))
	for i, in := range inputs {
		go func(i int, in []float64) {
			results[i], errs[i] = b.InferInto(ctx, name, version, in, nil)
			done <- struct{}{}
		}(i, in)
	}
	for range inputs {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// WriteError writes err as a structured JSON error under the status
// stream.StatusFor assigns it; an overload carries its Retry-After hint as
// the standard header so well-behaved clients back off for the advertised
// interval.
func WriteError(w http.ResponseWriter, err error) {
	code, retryAfter := stream.StatusFor(err)
	if retryAfter > 0 {
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1 // Retry-After is whole seconds; never advertise 0
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	WriteJSON(w, code, errorBody(err))
}

func errorBody(err error) map[string]string {
	return map[string]string{"error": err.Error()}
}

// WriteJSON writes v as the JSON body of a response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
	}
}
