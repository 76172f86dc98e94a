// Command reprolint is the project-native static-analysis suite: it
// proves, on every push, the structural invariants the runtime gates
// (alloc-gate, -race, fuzz) can only spot-check — allocation-free
// //repro:noalloc hot paths verified transitively over the call graph,
// atomics-only field access, a panic-free request path, no discarded
// errors, and balanced mutexes on every control-flow path.
//
// Usage:
//
//	go run ./tools/reprolint [-json] [packages]
//
// Packages default to ./... . Exit status is 1 when any diagnostic is
// found, 2 when the tree fails to load. -json emits the diagnostics plus
// the full //repro:noalloc function list. It is dependency-free by the
// same rule as promcheck: stdlib only, shelling out to the go toolchain
// for export data.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics and the noalloc function list as JSON")
	flag.Parse()
	if err := run(*jsonOut, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
}

func run(jsonOut bool, patterns []string) error {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	ld, err := newLoader(".", patterns)
	if err != nil {
		return err
	}
	pkgs, err := ld.packages()
	if err != nil {
		return err
	}
	diags := analyze(ld.fset, pkgs)
	facts := gatherMarks(ld, pkgs)

	if jsonOut {
		noalloc := make([]string, 0, len(facts.Noalloc))
		for name := range facts.Noalloc {
			noalloc = append(noalloc, name)
		}
		sort.Strings(noalloc)
		out := struct {
			Diagnostics []Diagnostic `json:"diagnostics"`
			Noalloc     []string     `json:"noalloc"`
		}{Diagnostics: diags, Noalloc: noalloc}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", d.Position, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		if !jsonOut {
			fmt.Printf("reprolint: %d problem(s)\n", len(diags))
		}
		os.Exit(1)
	}
	if !jsonOut {
		fmt.Printf("reprolint: %d package(s) clean, %d noalloc function(s) verified\n",
			len(pkgs), len(facts.Noalloc))
	}
	return nil
}

// gatherMarks collects just the //repro:noalloc mark facts (directive
// diagnostics already reported by analyze are dropped here).
func gatherMarks(ld *loader, pkgs []*Package) *Facts {
	facts := newFacts()
	discard := func(pos token.Pos, format string, args ...any) {}
	for _, pkg := range pkgs {
		parseDirectives(ld.fset, pkg, facts, discard)
	}
	return facts
}
