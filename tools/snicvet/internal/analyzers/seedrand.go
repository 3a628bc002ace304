package analyzers

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/tools/snicvet/internal/lint"
)

// Seedrand forbids math/rand (v1 and v2) and package-level RNG state.
// Calibrated experiments stay stable across refactors only because
// every component owns a sim.RNG forked from the run's master seed:
// a shared or global stream means adding one component perturbs the
// draws of every other.
var Seedrand = &lint.Analyzer{
	Name: "seedrand",
	Doc: "forbid math/rand and global RNG state; use internal/sim's " +
		"per-component seeded RNG (sim.NewRNG / RNG.Fork) instead",
	Run: runSeedrand,
}

// simRNGType reports whether t is sim.RNG or *sim.RNG.
func simRNGType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil &&
		obj.Pkg().Path() == "repro/internal/sim"
}

func runSeedrand(pass *lint.Pass) error {
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s is forbidden in model code: its global stream breaks per-component determinism; use sim.NewRNG / RNG.Fork",
					path)
			}
		}
		// Transitive: helpers that reach math/rand through any number of
		// calls, reported at the model-code call site via facts.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == pass.Pkg.Path() {
				return true
			}
			if f, ok := pass.Facts.Lookup(fn); ok && f.UsesUnseededRand {
				pass.Reportf(call.Pos(),
					"call to %s transitively draws from math/rand (%s); use sim.NewRNG / RNG.Fork per component",
					lint.FuncDisplay(fn), f.RandVia)
			}
			return true
		})
		// Package-level RNG variables are shared mutable streams: any
		// new caller perturbs every existing caller's draws.
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok.String() != "var" {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok || !simRNGType(obj.Type()) {
						continue
					}
					pass.Reportf(name.Pos(),
						"package-level RNG %s is a shared stream; embed the RNG in the component and fork it from the run seed",
						name.Name)
				}
			}
		}
	}
	return nil
}
