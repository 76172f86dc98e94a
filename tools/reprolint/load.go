package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader type-checks the module's packages with zero dependencies
// beyond the standard library: one `go list -e -export -deps` invocation
// produces compiled export data for every import (stdlib included), so
// each module package can be parsed from source and checked against
// export data through importer.ForCompiler's lookup hook. Shelling to
// the go toolchain is allowed; what stays forbidden is importing anything
// outside the stdlib.

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// Package is one type-checked module package plus its syntax.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File // non-test files, parsed with comments
	Types      *types.Package
	Info       *types.Info
}

// loader owns the shared FileSet, the export-data index, and the list of
// module packages selected by the CLI patterns.
type loader struct {
	dir     string // directory go list runs in (module-relative patterns)
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	targets []listedPackage   // module (non-stdlib) packages to analyze
	imp     types.Importer
}

// stdlibExtras are export-data seeds beyond the module's own dependency
// closure, so the self-test corpus can exercise imports (log, etc.) the
// production tree may not happen to use. Listing them costs nothing when
// they are already in the closure.
var stdlibExtras = []string{
	"bytes", "errors", "fmt", "log", "os", "strings", "sync", "sync/atomic", "time",
}

// newLoader runs go list once and indexes export data for every package
// in the dependency closure of patterns.
func newLoader(dir string, patterns []string) (*loader, error) {
	args := []string{
		"list", "-e", "-export", "-deps", "-test=false",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,Module",
	}
	args = append(args, patterns...)
	args = append(args, stdlibExtras...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	ld := &loader{dir: dir, fset: token.NewFileSet(), exports: make(map[string]string)}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Export != "" {
			ld.exports[lp.ImportPath] = lp.Export
		}
		if lp.Module != nil && !lp.Standard && len(lp.GoFiles) > 0 {
			ld.targets = append(ld.targets, lp)
		}
	}
	sort.Slice(ld.targets, func(i, j int) bool {
		return ld.targets[i].ImportPath < ld.targets[j].ImportPath
	})
	ld.imp = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := ld.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	})
	return ld, nil
}

// newInfo allocates the types.Info maps every check needs.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// packages parses and type-checks every target.
func (ld *loader) packages() ([]*Package, error) {
	var pkgs []*Package
	var typeErrs []string
	for _, lp := range ld.targets {
		p := &Package{ImportPath: lp.ImportPath, Dir: lp.Dir, Info: newInfo()}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(ld.fset, filepath.Join(lp.Dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.Files = append(p.Files, f)
		}
		conf := types.Config{
			Importer: ld.imp,
			Error: func(err error) {
				typeErrs = append(typeErrs, err.Error())
			},
		}
		p.Types, _ = conf.Check(lp.ImportPath, ld.fset, p.Files, p.Info)
		pkgs = append(pkgs, p)
	}
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type errors:\n  %s", strings.Join(typeErrs, "\n  "))
	}
	return pkgs, nil
}

// checkDir parses and type-checks one extra directory (a self-test
// corpus package) under the given import path, reusing the loader's
// export index. The path controls which scope-sensitive analyzers see
// the package as in scope.
func (ld *loader) checkDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{ImportPath: importPath, Dir: dir, Info: newInfo()}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	var typeErrs []string
	conf := types.Config{
		Importer: ld.imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	p.Types, _ = conf.Check(importPath, ld.fset, p.Files, p.Info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("corpus %s: type errors:\n  %s", dir, strings.Join(typeErrs, "\n  "))
	}
	return p, nil
}
