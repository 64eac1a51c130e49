// Command reprolint is the multichecker driver for the repro static
// analysis suite (internal/analysis): it mechanically enforces the
// determinism, cancellation, observer-pairing, atomic-discipline and
// cache-key-soundness invariants DESIGN.md §13 catalogs.
//
// Canonical invocation (module-wide, cross-package facts included):
//
//	go run ./cmd/reprolint ./...
//
// The driver also speaks enough of the `go vet -vettool` protocol to be
// invoked as a vet tool (it answers -V=full and accepts a vet .cfg file),
// with the caveat that vet runs it one package at a time, so the
// module-wide half of the atomic-discipline analyzer sees only one
// package per invocation. CI runs the canonical module-wide form.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The vet -vettool handshake: `reprolint -V=full` prints a version
	// fingerprint before any flag parsing.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("reprolint version devel (repro module)\n")
			return 0
		}
	}

	fs := flag.NewFlagSet("reprolint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	dir := fs.String("C", ".", "change to `dir` before loading packages")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetTool(rest[0], analyzers)
	}

	pkgs, fset, err := analysis.LoadModule(*dir, rest...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := analysis.Run(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return emit(diags, *jsonOut)
}

func emit(diags []analysis.Diagnostic, asJSON bool) int {
	if asJSON {
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// vetConfig is the subset of the go vet .cfg schema the driver needs: the
// package's sources plus the export data of its dependencies.
type vetConfig struct {
	ImportPath  string
	Dir         string
	GoFiles     []string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// runVetTool analyzes the single package a vet .cfg describes. Facts do
// not flow between vet invocations, so module-wide analyses degrade to
// their per-package halves here; the canonical CI gate is the module-wide
// standalone mode.
func runVetTool(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	if cfg.VetxOutput != "" {
		// vet expects a facts file regardless; reprolint keeps its facts
		// in-process, so an empty placeholder satisfies the protocol.
		if err := os.WriteFile(cfg.VetxOutput, []byte("reprolint\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("reprolint: no export data for %q in vet config", path)
		}
		return os.Open(file)
	}
	pkg, err := analysis.CheckFiles(fset, cfg.ImportPath, files, importer.ForCompiler(fset, "gc", lookup))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := analysis.Run(fset, []*analysis.Package{pkg}, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return emit(diags, false)
}
