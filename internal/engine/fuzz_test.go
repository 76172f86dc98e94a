package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The on-device parsers consume files from outside the trust boundary; they
// must reject malformed input with errors, never panic. These tests throw
// structured garbage at all three parsers.

func TestParserNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{
		"input", "fc", "circfc", "conv", "circconv", "fftconv", "maxpool",
		"avgpool", "flatten", "dropout", "relu", "softmax", "batchnorm",
		"block=64", "block=0", "block=x", "act=relu", "act=?", "stride=-1",
		"pad=9", "0", "1", "-5", "16", "121", "3.5", "#", "###", "\t", "∞",
	}
	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		lines := rng.Intn(8)
		for i := 0; i < lines; i++ {
			tokens := rng.Intn(5)
			for j := 0; j < tokens; j++ {
				sb.WriteString(words[rng.Intn(len(words))])
				sb.WriteByte(' ')
			}
			sb.WriteByte('\n')
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on:\n%s\npanic: %v", sb.String(), r)
				}
			}()
			e, err := ParseArchitecture(strings.NewReader(sb.String()), rng)
			if err == nil && e != nil {
				// A parse that succeeds must yield a runnable network.
				if len(e.Net.Layers) == 0 || len(e.InShape) == 0 {
					t.Fatalf("successful parse with empty network for:\n%s", sb.String())
				}
			}
		}()
	}
}

func TestParameterParserNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := mustParse(t, Arch2Text)
	var valid bytes.Buffer
	if err := SaveParameters(&valid, e.Net); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		// Half the trials keep a valid header prefix of random length, so
		// garbage reaches every header field and the body checksum.
		if trial%2 == 1 {
			buf = append(valid.Bytes()[:rng.Intn(paramHeaderLen+1):paramHeaderLen], buf...)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parameter parser panicked on %d bytes: %v", len(buf), r)
				}
			}()
			if err := e.LoadParameters(bytes.NewReader(buf)); err == nil {
				t.Fatal("parameter parser accepted random bytes")
			}
		}()
	}
}

func TestInputsParserNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := mustParse(t, Arch2Text)
	for trial := 0; trial < 200; trial++ {
		a := make([]byte, rng.Intn(100))
		b := make([]byte, rng.Intn(100))
		rng.Read(a)
		rng.Read(b)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("inputs parser panicked: %v", r)
				}
			}()
			if _, err := e.LoadInputs(bytes.NewReader(a), bytes.NewReader(b), 1); err == nil {
				t.Fatal("inputs parser accepted random bytes")
			}
		}()
	}
}

func TestTruncatedParameterFiles(t *testing.T) {
	// Valid prefix, cut at every header field boundary and inside the
	// body: must error cleanly at each cut; so must one trailing byte.
	r2 := mustParse(t, Arch2Text)
	var full bytes.Buffer
	if err := SaveParameters(&full, r2.Net); err != nil {
		t.Fatal(err)
	}
	data := full.Bytes()
	for _, cut := range []int{0, 1, 4, 8, 16, 20, 24, 31, 32, 33, 100, len(data) - 1} {
		e := mustParse(t, Arch2Text)
		if err := e.LoadParameters(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("accepted parameter file truncated at %d/%d bytes", cut, len(data))
		}
	}
	e := mustParse(t, Arch2Text)
	if err := e.LoadParameters(bytes.NewReader(append(append([]byte(nil), data...), 0))); err == nil {
		t.Error("accepted parameter file with a trailing byte")
	}
	// The untruncated file must load.
	if err := e.LoadParameters(bytes.NewReader(data)); err != nil {
		t.Errorf("full file rejected: %v", err)
	}
}

// fuzzArch is a small architecture whose body holds every run kind:
// dense and circulant tensors, and a BatchNorm's running statistics.
const fuzzArch = "input 8\ncircfc 8 block=4 act=relu\nbatchnorm\nfc 3\n"

// FuzzLoadParameters hammers the parameter-file reader with hostile bytes.
// Parsing never panics, and any input LoadParameters accepts re-saves
// byte-identically through SaveParameters: the format has one encoding per
// network, and the reader accepts exactly that file, nothing around it.
func FuzzLoadParameters(f *testing.F) {
	e, err := ParseArchitecture(strings.NewReader(fuzzArch), rand.New(rand.NewSource(3)))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveParameters(&buf, e.Net); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	if err := e.LoadParameters(bytes.NewReader(valid)); err != nil {
		f.Fatalf("seed file rejected: %v", err)
	}
	f.Add(valid)
	// Truncations: inside the header, at its end, one byte short.
	for _, n := range []int{0, 3, 4, 11, 12, 20, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	// Trailing garbage after a well-formed file.
	f.Add(append(append([]byte(nil), valid...), 0x00))
	// Bad magic / the v1 version number.
	patched := func(off int, v uint64, width int) []byte {
		b := append([]byte(nil), valid...)
		for i := 0; i < width; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
		return b
	}
	f.Add(patched(0, 0, 1))
	f.Add(patched(4, 1, 4))
	// Hostile count: claims 2^64-1 values with no body behind them.
	f.Add(patched(8, ^uint64(0), 8)[:paramHeaderLen])
	// Zero count.
	f.Add(patched(8, 0, 8)[:paramHeaderLen])
	// A non-zero reserved word.
	f.Add(patched(24, 1, 8))
	// Corrupted checksum field.
	f.Add(patched(20, 0x40, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := e.LoadParameters(bytes.NewReader(data)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := SaveParameters(&out, e.Net); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-save as %d different bytes", len(data), out.Len())
		}
	})
}

// FuzzParseArchitecture holds Fig. 4's first parser to two properties: it
// never panics, and any text it accepts survives export — the exported text
// parses to a network that exports the same text again, layer for layer
// with the same names and parameter shapes, on the same input shape. Texts
// whose layers would hold more than parseBudget weights are skipped, so a
// fuzzed "fc 1000000" cannot exhaust memory before the parser returns.
func FuzzParseArchitecture(f *testing.F) {
	for _, seed := range []string{
		Arch1Text, Arch2Text, Arch3Text,
		"fc 10\n", "input 4\ninput 4\n", "input 0\n", "input 4 4 1\nfc 10\n", "input 16\nconv 8 3\n",
		"input 16\ncircfc 8\n", "input 16\ncircfc 8 block=x\n", "input 16\nfoo 3\n", "input 5 5 1\nmaxpool 2\n",
		"input 2 2 1\nconv 4 5\n", "input 16\ndropout 1.5\n", "", "input 16\n", "input 16\nfc 10 act=step\n",
		"input 8 8 2\nconv 4 3 stride=1 pad=1 act=tanh\navgpool 2\nflatten\ndropout 0.25\nfc 6 act=sigmoid\nfc 3\nsoftmax\n",
		"input 8 8 2\nfftconv 4 3 act=relu\nbatchnorm\nmaxpool 2\nflatten\nfc 5 act=relu\nbatchnorm\nfc 3\nsoftmax\n",
		"input 8 8 1\nfftconv 4 3 stride=2\n", "batchnorm\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if parseWeights(text) > parseBudget {
			t.Skip("over the weight budget")
		}
		e, err := ParseArchitecture(strings.NewReader(text), rand.New(rand.NewSource(1)))
		if err != nil {
			return
		}
		out, err := ExportArchitecture(e.Net, e.InShape)
		if err != nil {
			t.Fatalf("accepted text does not export: %v\ntext:\n%s", err, text)
		}
		e2, err := ParseArchitecture(strings.NewReader(out), rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatalf("exported text does not parse: %v\nexported:\n%s", err, out)
		}
		out2, err := ExportArchitecture(e2.Net, e2.InShape)
		if err != nil || out2 != out {
			t.Fatalf("export of the re-parsed network differs (%v):\n%s\nwant:\n%s", err, out2, out)
		}
		if a, b := layerShapes(e), layerShapes(e2); a != b {
			t.Fatalf("re-parsed layers differ:\n%s\nwant:\n%s", b, a)
		}
	})
}

// parseBudget bounds the weights a fuzzed architecture may ask the parser
// to allocate.
const parseBudget = 1 << 23

// parseWeights over-estimates how many weights ParseArchitecture allocates
// for text: it follows the running per-sample size line by line, never
// shrinking it for a convolution's border or stride, and charges each
// layer its dense size. Unparseable numbers count as 0: the parser rejects
// those lines before allocating.
func parseWeights(text string) int {
	const limit = 1 << 40
	mul := func(a, b int) int {
		if a > 0 && b > limit/a {
			return limit
		}
		return a * b
	}
	h, w, c, total := 1, 1, 1, 0
	for _, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		var nums []int
		pad := 0
		for _, fld := range fields[1:] {
			key, val, opt := strings.Cut(fld, "=")
			if !opt {
				val = key
			}
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 {
				v = 0
			}
			if !opt {
				nums = append(nums, v)
			} else if key == "pad" {
				pad = v
			}
		}
		arg := func(i int) int {
			if i < len(nums) {
				return nums[i]
			}
			return 0
		}
		switch strings.ToLower(fields[0]) {
		case "input":
			h, w, c = max(arg(0), 1), max(arg(1), 1), max(arg(2), 1)
			if len(nums) == 1 {
				w, c = 1, 1
			}
		case "fc", "circfc":
			total += mul(mul(mul(h, w), c), arg(0))
			h, w, c = arg(0), 1, 1
		case "conv", "circconv", "fftconv":
			h, w = h+2*pad, w+2*pad
			total += mul(mul(arg(0), mul(arg(1), arg(1))), c) + mul(mul(h, w), arg(0))
			c = arg(0)
		case "maxpool", "avgpool":
			if s := arg(0); s > 0 {
				h, w = h/s, w/s
			}
		case "batchnorm":
			total += c
		}
		total = min(total, limit)
	}
	return total
}

// layerShapes lists an engine's input shape and each layer's name and
// parameter shapes.
func layerShapes(e *Engine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "input %v\n", e.InShape)
	for _, l := range e.Net.Layers {
		b.WriteString(l.Name())
		for _, p := range l.Params() {
			fmt.Fprintf(&b, " %s%v", p.Name, p.Value.Shape())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
