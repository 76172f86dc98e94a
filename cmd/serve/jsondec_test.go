package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve/httpapi"
)

// jsonRequestTypes are the request body types cmd/serve decodes with the
// one-pass reader, each as a fresh zero value.
var jsonRequestTypes = []func() httpapi.JSONObject{
	func() httpapi.JSONObject { return &httpapi.Request{} },
	func() httpapi.JSONObject { return &upsertRequest{} },
	func() httpapi.JSONObject { return &searchRequest{} },
	func() httpapi.JSONObject { return &trainRequest{} },
}

// jsonSeeds are the bench's body shapes plus the corners where a hand
// decoder parts from encoding/json: escapes, nulls, repeated and
// case-folded keys, trailing bytes, range and rounding edges, bad syntax.
func jsonSeeds() []string {
	floats := func(bits int, vs ...float64) string {
		b := []byte{'['}
		for i, v := range vs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, bits)
		}
		return string(append(b, ']'))
	}
	vals := []float64{0.1, 1e-05, 0.003921568859368563, -0.5, 0, 1, 123456.789, 2.5e-8}
	seeds := []string{
		`{"input":` + floats(64, vals...) + `}`,
		`{"inputs":[` + floats(64, vals...) + `,` + floats(64, vals[:3]...) + `]}`,
		`{"vector":` + floats(32, vals...) + `,"k":10}`,
		`{"vector":` + floats(32, vals...) + `,"k":10,"metric":"dot","quantized":true,"nprobe":4}`,
		`{"ids":["a","b"],"vectors":[` + floats(32, vals...) + `,` + floats(32, vals...) + `]}`,
		`{"k":32,"seed":7}`,
		// Escapes, surrogates, invalid UTF-8, control characters.
		`{"ids":["a\"b","\u00e9","\ud83d\ude00","\ud800","x\/y\\z"],"metric":"d\u006ft"}`,
		"{\"ids\":[\"\xff\xfe\"],\"metric\":\"\xc3\"}",
		"{\"metric\":\"a\x01\"}",
		`{"metric":"\x41"}`,
		`{"\u006b":3}`,
		// Nulls.
		`{"input":[1,null,3]}`, `{"inputs":[[1],null,[]]}`, `{"input":null}`, `null`,
		`{"vector":[null],"k":null,"metric":null,"quantized":null}`, `{"ids":[null,"a"]}`,
		`{"input":[]}`, `{"inputs":[]}`, `{}`,
		// Repeated and case-folded keys.
		`{"input":[1,2,3],"input":[null]}`, `{"INPUT":[1],"input":[null,2]}`,
		`{"input":[1,2,3],"input":[],"input":[null]}`,
		`{"inputs":[[1,2],[3]],"Inputs":[[null,null,null],null]}`,
		`{"ids":["a","b"],"IDS":[null]}`, `{"K":3,"k":null}`, `{"k":3,"K":4}`,
		"{\"\u212a\":5}", "{\"\u017feed\":1}", "{\"\u0130nput\":[1]}", "{\"\u0131nput\":[1]}",
		// Trailing bytes.
		`{"k":1}xyz`, `{"k":1} {"k":2}`, `null garbage`, `nullx`, ` {"k":1}`,
		// Range and rounding.
		`{"input":[1e400]}`, `{"input":[-1e400]}`, `{"input":[1e-400]}`, `{"input":[-0]}`,
		`{"vector":[1e39]}`, `{"vector":[3.4028235e38]}`, `{"vector":[3.4028236e38]}`,
		`{"vector":[1e-46]}`, `{"vector":[1.0000000596046448]}`, `{"vector":[1.000000059604644775390625]}`,
		`{"k":9223372036854775807}`, `{"k":9223372036854775808}`, `{"k":2147483648}`,
		`{"seed":-9223372036854775809}`, `{"k":1.0}`, `{"k":1e2}`, `{"k":-0}`, `{"k":4611686018427387904}`,
		// Bad syntax and wrong types.
		`{"input":[1,]}`, `{"input":[01]}`, `{"input":[.5]}`, `{"input":[1.]}`, `{"input":[-]}`,
		`{"input":[1e]}`, `{"input":[+1]}`, `{"input":[1 2]}`, `{"input":"1"}`, `{"input":1}`,
		`{`, ``, ` `, `[]`, `"x"`, `1`, `true`, `nul`, `{"a":tru}`, `{"a":nul}`, `{"k":1,}`, `{,}`,
		`{"a" 1}`, `{"a":1 "b":2}`, `{"metric":5}`, `{"quantized":"true"}`, `{"ids":[1]}`,
		`{"inputs":[1]}`, `{"inputs":[[1],2]}`, `{"vectors":{"a":1}}`, `{"seed":"1"}`,
		`{"x":{"y":[1,{"z":null}],"w":"v"},"k":2}`, `{"x":{"y":}}`, `{"x":[1,{]}`, `{1:2}`,
	}
	// encoding/json's nesting limit, reached and passed under an unknown key.
	for _, depth := range []int{9999, 10000} {
		seeds = append(seeds, `{"x":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`)
	}
	return seeds
}

// checkJSONRequest decodes body into every request type with the one-pass
// reader and with encoding/json: both must accept or both refuse, and an
// accepted body must give the same bits in every field, nil-vs-empty
// included, and none of them may alias the body.
func checkJSONRequest(t *testing.T, body []byte) {
	for _, fresh := range jsonRequestTypes {
		got, want := fresh(), fresh()
		buf := bytes.Clone(body)
		gotErr := httpapi.DecodeJSON(buf, got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%T on %q: one-pass err %v, encoding/json err %v", got, body, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if !sameBits(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()) {
			t.Fatalf("%T on %q:\none-pass     %#v\nencoding/json %#v", got, body, got, want)
		}
	}
}

// sameBits compares decoded request values exactly: float bit patterns (so
// -0 differs from 0) and the nil-vs-empty state of every slice.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Interface() == b.Interface()
}

func TestJSONRequestMatchesEncodingJSON(t *testing.T) {
	for _, s := range jsonSeeds() {
		checkJSONRequest(t, []byte(s))
	}
}

// FuzzJSONRequest is the differential fuzz target of the one-pass reader
// against encoding/json over every request body type.
func FuzzJSONRequest(f *testing.F) {
	for _, s := range jsonSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkJSONRequest)
}
