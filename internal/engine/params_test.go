package engine

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// writeParams saves e's parameters to a params.bin in a fresh directory.
func writeParams(t *testing.T, e *Engine) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveParameters(&buf, e.Net); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "params.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// mapInto parses arch and maps path into it, closing the mapping at the
// end of the test.
func mapInto(t *testing.T, arch, path string) error {
	t.Helper()
	mp, err := mustParse(t, arch).MapParameters(path)
	if err == nil {
		t.Cleanup(func() { _ = mp.Close() })
	}
	return err
}

// TestCorruptBlob: a flipped body byte must fail the checksum, a
// truncated or extended file the size check, and a file written for
// another architecture with the same value count the shape digest — on
// both the mapped and the reader path.
func TestCorruptBlob(t *testing.T) {
	path, data := writeParams(t, mustParse(t, Arch2Text))
	if err := mapInto(t, Arch2Text, path); err != nil {
		t.Fatalf("intact file rejected: %v", err)
	}
	flip := append([]byte(nil), data...)
	flip[paramHeaderLen+(len(flip)-paramHeaderLen)/2] ^= 0x01
	for _, bad := range []struct {
		name, want string
		data       []byte
	}{
		{"flipped body byte", "checksum", flip},
		{"truncated", "bytes", data[:len(data)-8]},
		{"extended", "bytes", append(append([]byte(nil), data...), make([]byte, 8)...)},
		{"header only", "bytes", data[:paramHeaderLen]},
		{"short header", "shorter", data[:paramHeaderLen-1]},
	} {
		if err := os.WriteFile(path, bad.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := mapInto(t, Arch2Text, path); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: mapped load error %v, want one naming %q", bad.name, err, bad.want)
		}
		if err := mustParse(t, Arch2Text).LoadParameters(bytes.NewReader(bad.data)); err == nil {
			t.Errorf("%s: reader accepted the file", bad.name)
		}
	}
	// Both architectures hold 58 values: 6·4+4+4·6+6 and 4·6+6+6·4+4.
	const archA, archB = "input 6\nfc 4 act=relu\nfc 6\n", "input 4\nfc 6 act=relu\nfc 4\n"
	a, b := mustParse(t, archA), mustParse(t, archB)
	if a.Net.NumParams() != b.Net.NumParams() {
		t.Fatalf("value counts %d and %d differ", a.Net.NumParams(), b.Net.NumParams())
	}
	path, data = writeParams(t, a)
	if err := mapInto(t, archB, path); err == nil || !strings.Contains(err.Error(), "shape digest") {
		t.Errorf("another architecture's file mapped: %v", err)
	}
	if err := b.LoadParameters(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "shape digest") {
		t.Errorf("another architecture's file loaded: %v", err)
	}
}

// TestParameterBytesRoundTrip pins the codec: save → load into a freshly
// parsed network → save must be byte-identical, through both the reader
// and the mapping, and the body is exactly the header's count of values.
func TestParameterBytesRoundTrip(t *testing.T) {
	src := mustParse(t, fuzzArch)
	// A training forward moves the BatchNorm statistics off their initial
	// values, so the body's last runs are checked too.
	src.Net.Forward(tensor.New(4, 8).Randn(rand.New(rand.NewSource(8)), 1), true)
	path, data := writeParams(t, src)
	_, count, _ := bodyRuns(src.Net)
	if len(data) != paramHeaderLen+8*count {
		t.Fatalf("file of %d bytes for %d values", len(data), count)
	}
	for _, mapped := range []bool{false, true} {
		// Another seed, so every value the file holds must overwrite one.
		e, err := ParseArchitecture(strings.NewReader(fuzzArch), rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		if mapped {
			mp, err := e.MapParameters(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mp.Close()
		} else if err := e.LoadParameters(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := SaveParameters(&again, e.Net); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Errorf("mapped=%v: round trip changed bytes", mapped)
		}
	}
}
