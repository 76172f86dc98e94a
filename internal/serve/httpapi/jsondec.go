package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// JSONObject is a request body type the one-pass reader decodes.
// DecodeMember is called once per member of the body's object, with d
// positioned on the member's value: it picks a field with d.Field and
// decodes the value with the matching typed method. A member it leaves
// unread (an unknown key) is skipped, still validated.
type JSONObject interface {
	DecodeMember(d *JSONDecoder)
}

// maxDepth is encoding/json's nesting limit, kept so the same bodies are
// refused and a hostile body cannot recurse the skipper off the stack.
const maxDepth = 10000

// ReadJSON reads body to its end into a pooled buffer and decodes its first
// JSON value into v (DecodeJSON).
func ReadJSON(body io.Reader, v JSONObject) error {
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(body); err != nil {
		return err
	}
	return DecodeJSON(buf.Bytes(), v)
}

// DecodeJSON walks data's first JSON value once, straight into v's typed
// fields, with json.NewDecoder(…).Decode(v)'s meaning: the same bodies are
// accepted and every accepted value is the same bits. Keys match exactly,
// else case-insensitively; with duplicates the last wins; null leaves a
// scalar unchanged and sets a slice to nil; a top-level null decodes
// nothing; bytes after the first value are ignored. Decoded values never
// alias data.
func DecodeJSON(data []byte, v JSONObject) error {
	d := JSONDecoder{data: data}
	d.space()
	if d.pos == len(d.data) {
		return errors.New("empty body")
	}
	if d.data[d.pos] == 'n' {
		d.literal("null")
		return d.err
	}
	d.object(func() {
		at := d.pos
		v.DecodeMember(&d)
		if d.pos == at {
			d.skip()
		}
	})
	return d.err
}

// JSONDecoder is the one-pass reader's cursor over a body. Its error is
// sticky: after the first syntax or type error every method returns its
// argument unchanged and DecodeJSON reports that error.
type JSONDecoder struct {
	data  []byte
	pos   int
	depth int
	key   []byte
	err   error
}

// Field returns the index of the current member's key among names: an
// exact match first, else a case-insensitive one (encoding/json's rule),
// else -1.
func (d *JSONDecoder) Field(names ...string) int {
	for i, n := range names {
		if string(d.key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(d.key, []byte(n)) {
			return i
		}
	}
	return -1
}

// f64 decodes a number, rounded once from its decimal text.
func (d *JSONDecoder) f64(old float64) float64 {
	tok := d.number()
	if tok == nil {
		return old
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail(err)
		return old
	}
	return f
}

// f32 decodes a number, rounded once from its decimal text to float32
// (narrowing a float64 would round twice).
func (d *JSONDecoder) f32(old float32) float32 {
	tok := d.number()
	if tok == nil {
		return old
	}
	f, err := strconv.ParseFloat(string(tok), 32)
	if err != nil {
		d.fail(err)
		return old
	}
	return float32(f)
}

// Int decodes an integer that fits an int on this platform.
func (d *JSONDecoder) Int(old int) int {
	return int(d.integer(int64(old), strconv.IntSize))
}

// Int64 decodes an integer that fits an int64.
func (d *JSONDecoder) Int64(old int64) int64 {
	return d.integer(old, 64)
}

func (d *JSONDecoder) integer(old int64, bits int) int64 {
	tok := d.number()
	if tok == nil {
		return old
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		d.fail(err)
		return old
	}
	return n
}

// Bool decodes true or false.
func (d *JSONDecoder) Bool(old bool) bool {
	switch {
	case !d.scalar("bool"):
	case d.data[d.pos] == 't' && d.literal("true"):
		return true
	case d.data[d.pos] == 'f' && d.literal("false"):
		return false
	default:
		d.typeError("bool")
	}
	return old
}

// String decodes a string.
func (d *JSONDecoder) String(old string) string {
	if d.scalar("string") {
		if d.data[d.pos] != '"' {
			d.typeError("string")
			return old
		}
		if s := d.str(); d.err == nil {
			return string(s)
		}
	}
	return old
}

// Float64s, Float32s, Float64Rows, Float32Rows and Strings decode an array
// into old's storage as encoding/json does: an element keeps the value
// already stored at its index while it is within old's capacity (so a
// null element of a repeated key keeps the earlier one), [] is a non-nil
// empty slice, and null is nil.
func (d *JSONDecoder) Float64s(old []float64) []float64 {
	return array(d, old, (*JSONDecoder).f64)
}

func (d *JSONDecoder) Float32s(old []float32) []float32 {
	return array(d, old, (*JSONDecoder).f32)
}

func (d *JSONDecoder) Float64Rows(old [][]float64) [][]float64 {
	return array(d, old, (*JSONDecoder).Float64s)
}

func (d *JSONDecoder) Float32Rows(old [][]float32) [][]float32 {
	return array(d, old, (*JSONDecoder).Float32s)
}

func (d *JSONDecoder) Strings(old []string) []string {
	return array(d, old, (*JSONDecoder).String)
}

func array[T any](d *JSONDecoder, old []T, elem func(*JSONDecoder, T) T) []T {
	if !d.scalar("array") {
		if d.err == nil {
			return nil // null
		}
		return old
	}
	if !d.open('[', "array") {
		return old
	}
	if d.close(']') {
		return []T{}
	}
	s := old[:0]
	for d.err == nil {
		if len(s) < cap(s) {
			s = s[:len(s)+1]
		} else {
			var zero T
			s = append(s, zero)
		}
		s[len(s)-1] = elem(d, s[len(s)-1])
		if d.next(']') {
			return s
		}
	}
	return old
}

// scalar reports whether a non-null value is next, consuming a null; it is
// false on an error (sticky or end of input).
func (d *JSONDecoder) scalar(want string) bool {
	if d.err != nil {
		return false
	}
	if d.pos == len(d.data) {
		d.syntax("looking for " + want)
		return false
	}
	if d.data[d.pos] == 'n' {
		d.literal("null")
		return false
	}
	return true
}

// number consumes a JSON number and returns its text, or nil for a null or
// an error.
func (d *JSONDecoder) number() []byte {
	if !d.scalar("number") {
		return nil
	}
	start, i, n := d.pos, d.pos, len(d.data)
	if d.data[i] == '-' {
		i++
	}
	switch {
	case i < n && d.data[i] == '0':
		i++
	case i < n && '1' <= d.data[i] && d.data[i] <= '9':
		i = digits(d.data, i+1)
	default:
		if i == start {
			d.typeError("number")
		} else {
			d.pos = i
			d.syntax("in numeric literal")
		}
		return nil
	}
	if i < n && d.data[i] == '.' {
		if j := digits(d.data, i+1); j > i+1 {
			i = j
		} else {
			d.pos = j
			d.syntax("after decimal point in numeric literal")
			return nil
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if j := digits(d.data, i); j > i {
			i = j
		} else {
			d.pos = j
			d.syntax("in exponent of numeric literal")
			return nil
		}
	}
	d.pos = i
	return d.data[start:i]
}

// digits returns the index of the first non-digit of data at or after i.
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// str consumes a string and returns its decoded bytes: a slice of the body
// for printable ASCII without escapes, else what encoding/json decodes
// (escapes, surrogates, invalid UTF-8 replaced).
func (d *JSONDecoder) str() []byte {
	start, plain := d.pos, true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			if plain {
				return d.data[start+1 : i]
			}
			var s string
			if err := json.Unmarshal(d.data[start:i+1], &s); err != nil {
				d.pos = start
				d.fail(err)
				return nil
			}
			return []byte(s)
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	d.pos = len(d.data)
	d.syntax("in string literal")
	return nil
}

// skip consumes any one value, validating it.
func (d *JSONDecoder) skip() {
	if !d.scalar("value") {
		return
	}
	switch d.data[d.pos] {
	case '{':
		d.object(d.skip)
	case '[':
		if !d.open('[', "array") || d.close(']') {
			return
		}
		for d.err == nil {
			d.skip()
			if d.next(']') {
				return
			}
		}
	case '"':
		d.str()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	default:
		d.number()
	}
}

// object walks an object, calling member on each member's value with the
// member's key in d.key.
func (d *JSONDecoder) object(member func()) {
	if !d.open('{', "object") || d.close('}') {
		return
	}
	for d.err == nil {
		if d.pos == len(d.data) || d.data[d.pos] != '"' {
			d.syntax("looking for object key")
			return
		}
		d.key = d.str()
		d.space()
		if !d.consume(':') {
			d.syntax("after object key")
			return
		}
		d.space()
		member()
		if d.next('}') {
			return
		}
	}
}

// open consumes the opening bracket of a container, one nesting level
// deeper; any other value is a type error.
func (d *JSONDecoder) open(c byte, kind string) bool {
	if d.err != nil {
		return false
	}
	if d.pos == len(d.data) || d.data[d.pos] != c {
		d.typeError(kind)
		return false
	}
	if d.depth++; d.depth > maxDepth {
		d.syntax("exceeding max depth")
		return false
	}
	d.pos++
	d.space()
	return true
}

// close consumes the closing bracket c, one nesting level up.
func (d *JSONDecoder) close(c byte) bool {
	if d.err == nil && d.consume(c) {
		d.depth--
		return true
	}
	return false
}

// next follows a container element: it consumes the comma before the next
// one (false) or the closing bracket (true). Anything else is a syntax
// error, reported as the end.
func (d *JSONDecoder) next(end byte) bool {
	if d.err != nil {
		return true
	}
	d.space()
	switch {
	case d.consume(','):
		d.space()
		return false
	case d.close(end):
		return true
	}
	d.syntax("after container element")
	return true
}

func (d *JSONDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *JSONDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// literal consumes lit, which must follow; it reports whether it did.
func (d *JSONDecoder) literal(lit string) bool {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		d.syntax("in literal " + lit)
		return false
	}
	d.pos += len(lit)
	return true
}

func (d *JSONDecoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %w", d.pos, err)
	}
}

func (d *JSONDecoder) syntax(context string) {
	if d.pos == len(d.data) {
		d.fail(fmt.Errorf("unexpected end of input %s", context))
		return
	}
	d.fail(fmt.Errorf("invalid character %q %s", d.data[d.pos], context))
}

func (d *JSONDecoder) typeError(want string) {
	if d.pos == len(d.data) {
		d.syntax("looking for " + want)
		return
	}
	d.fail(fmt.Errorf("cannot decode %q into a %s", d.data[d.pos], want))
}
