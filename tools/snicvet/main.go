// Command snicvet is the repository's determinism and unit-safety
// linter, invoked through the standard vet-tool protocol:
//
//	go build -o bin/snicvet ./tools/snicvet
//	go vet -vettool=bin/snicvet ./...
//
// It speaks the same command-line protocol as
// golang.org/x/tools/go/analysis/unitchecker (-V=full, -flags, and a
// JSON *.cfg describing one compilation unit) but is implemented with
// the standard library only, because this module builds offline with
// no external dependencies. The go command hands us parsed-out
// compilation units with export data for every import, so no package
// loading machinery is needed here.
//
// Findings are suppressed per line with:
//
//	//snicvet:ignore <analyzer>[,<analyzer>] <reason>
//
// placed on the offending line or the line above. The reason is
// mandatory and directives without one are themselves reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"repro/tools/snicvet/internal/analyzers"
	"repro/tools/snicvet/internal/lint"
)

// vetConfig mirrors the JSON compilation-unit description the go
// command writes for vet tools (see unitchecker.Config in x/tools).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("snicvet: ")
	args := os.Args[1:]
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			// We accept no analyzer-selection flags: the policy in
			// policy.go decides where each analyzer applies.
			fmt.Println("[]")
			return
		case "help", "-help", "--help":
			usage()
			return
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		usage()
		os.Exit(2)
	}
	os.Exit(runUnit(args[0]))
}

// printVersion emits the tool identity the go command uses as a build
// cache key. Hashing our own executable makes the key track analyzer
// changes, so editing snicvet invalidates cached vet results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("snicvet version devel buildID=%x\n", h.Sum(nil)[:16])
}

func usage() {
	fmt.Fprintf(os.Stderr, "snicvet checks simulator determinism and unit-safety invariants.\n")
	fmt.Fprintf(os.Stderr, "It is a vet tool; run it via:\n\n\tgo vet -vettool=bin/snicvet ./...\n\nAnalyzers:\n")
	for _, a := range analyzers.All() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress one line with: %s <analyzer> <reason>\n", lint.IgnorePrefix)
}

func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode vet config %s: %v", cfgPath, err)
	}

	// The go command runs the tool over every dependency and threads
	// the vetx outputs through the build cache: a unit's vetx is an
	// input to every importer's vet action, so changing a leaf's facts
	// re-vets everything above it. Module packages get real fact
	// payloads; everything else writes an empty file (it must exist).
	emptyVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0666); err != nil {
				log.Fatal(err)
			}
		}
	}
	if !analyzers.ReproPackage(cfg.ImportPath) {
		emptyVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				emptyVetx()
				return 0
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, info, err := typecheck(cfg, fset, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			emptyVetx()
			return 0
		}
		log.Fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}

	unit := &lint.Unit{
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		FileExempt: fileExempt,
		Facts:      readImportedFacts(cfg),
	}
	pf := analyzers.ComputeFacts(unit, unit.Facts)
	if cfg.VetxOutput != "" {
		payload, err := pf.Encode()
		if err != nil {
			log.Fatalf("encoding facts for %s: %v", cfg.ImportPath, err)
		}
		if err := os.WriteFile(cfg.VetxOutput, payload, 0666); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	active := activeAnalyzers(cfg.ImportPath)
	if len(active) == 0 {
		return 0
	}
	findings, err := lint.Run(unit, active)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s [snicvet:%s]\n", f.Pos, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// readImportedFacts loads the fact payloads of this unit's module
// dependencies from the vetx files the go command supplied. Standard
// library entries are empty and decode to nil; foreign or stale
// payloads are tolerated the same way.
func readImportedFacts(cfg *vetConfig) *lint.FactDB {
	db := lint.NewFactDB()
	// Sorted so a decode failure is reported at the same package no
	// matter how the map iterates (and so the linter passes its own
	// detflow rule).
	paths := make([]string, 0, len(cfg.PackageVetx))
	for path := range cfg.PackageVetx {
		if analyzers.ReproPackage(path) {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		data, err := os.ReadFile(cfg.PackageVetx[path])
		if err != nil {
			continue // missing vetx: treat as fact-free
		}
		pf, err := lint.DecodeFacts(data)
		if err != nil {
			log.Fatalf("decoding facts of %s: %v", path, err)
		}
		db.Add(pf)
	}
	return db
}

// typecheck type-checks one compilation unit against the export data
// the go command supplied for its imports.
func typecheck(cfg *vetConfig, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped // resolve vendoring and test variants
		}
		return compilerImporter.Import(importPath)
	})
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
