package main

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The production pin: the whole module tree must stay diagnostic-free,
// and the acceptance-critical hot paths must actually carry their
// //repro:noalloc marks — an accidental revert of an annotation is a
// test failure, not a silent narrowing of the static guarantee. This
// mirrors TestMetricsConformance's role for the /metrics surface.

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// loadTree loads and type-checks the full module once per test binary.
var loadTree = sync.OnceValues(func() (*treeLoad, error) {
	ld, err := newLoader(rootDir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	pkgs, err := ld.packages()
	if err != nil {
		return nil, err
	}
	return &treeLoad{ld: ld, pkgs: pkgs}, nil
})

var rootDir string

type treeLoad struct {
	ld   *loader
	pkgs []*Package
}

func tree(t *testing.T) *treeLoad {
	t.Helper()
	rootDir = moduleRoot(t)
	tl, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestReprolintClean(t *testing.T) {
	tl := tree(t)
	for _, d := range analyze(tl.ld.fset, tl.pkgs) {
		t.Errorf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
	}
}

// TestNoallocCoverage pins the hot paths the PR contract names: serving
// InferInto, the stream frame codec, compiled-program Run, and the
// spectral engine with the four split-FFT kernels it runs, and the integer
// circulant product with its two number-theoretic transforms must stay in
// the verified noalloc tier.
func TestNoallocCoverage(t *testing.T) {
	tl := tree(t)
	facts := gatherMarks(tl.ld, tl.pkgs)
	for _, required := range []string{
		"(*repro/internal/serve.Server).InferInto",
		"(*repro/internal/serve.Registry).InferInto",
		"repro/internal/serve/stream.AppendFrame",
		"repro/internal/serve/stream.DecodeFrame",
		"(*repro/internal/serve/stream.Client).DoInto",
		"(*repro/internal/program.Program).Run",
		"(*repro/internal/program.Program).execQCirc",
		"(*repro/internal/fft.NTTPlan).Forward",
		"(*repro/internal/fft.NTTPlan).Inverse",
		"(*repro/internal/fft.Plan).ForwardSplitManyRev",
		"(*repro/internal/fft.Plan).InverseSplitManyRev",
		"(*repro/internal/fft.RealPlan).UnpackSplitMany",
		"(*repro/internal/fft.RealPlan).PreInverseSplitManyRev",
		"(*repro/internal/circulant.BlockCirculant).batchCore",
		"(*repro/internal/circulant.BlockCirculant).outputColumns",
		"(*repro/internal/circulant.BlockCirculant).TransMulBatchFusedInto",
		"(*repro/internal/metrics.Histogram).Observe",
		"(*repro/internal/serve/admission.Controller).Admit",
	} {
		if _, ok := facts.Noalloc[required]; !ok {
			t.Errorf("%s is not //repro:noalloc (the hot-path guarantee regressed)", required)
		}
	}
	if len(facts.Noalloc) < 50 {
		t.Errorf("only %d noalloc functions verified; the annotated tier should exceed 50", len(facts.Noalloc))
	}
}
