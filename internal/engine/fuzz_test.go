package engine

import (
	"bytes"
	"math/rand"
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
