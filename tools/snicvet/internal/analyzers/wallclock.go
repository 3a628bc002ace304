package analyzers

import (
	"go/ast"
	"go/types"

	"repro/tools/snicvet/internal/lint"
)

// wallclockFuncs are the time-package functions that read or schedule
// against the host's wall clock. Pure conversions and formatting on
// time.Duration values (sim.Duration.Std, String) are fine: they carry
// no host-time dependence.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Wallclock forbids wall-clock time in simulator model code. Every
// state change in the models must happen at a virtual timestamp on the
// sim.Engine event loop; reading the host clock makes runs depend on
// scheduling and GC pauses and breaks byte-identical replay.
var Wallclock = &lint.Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Sleep/After and friends in model packages; " +
		"use the sim.Engine virtual clock (sim.Time, sim.Duration) instead",
	Run: runWallclock,
}

func runWallclock(pass *lint.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				if wallclockFuncs[fn.Name()] {
					pass.Reportf(n.Pos(),
						"time.%s reads the wall clock; model code must use the sim.Engine virtual clock (sim.Time/sim.Duration)",
						fn.Name())
				}
			case *ast.CallExpr:
				// Transitive: a call to a function whose propagated fact
				// says it reaches the wall clock, however many helpers
				// deep. Same-package roots are reported directly above;
				// here only cross-package laundering is flagged.
				fn := calleeFunc(pass.TypesInfo, n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == pass.Pkg.Path() {
					return true
				}
				if f, ok := pass.Facts.Lookup(fn); ok && f.ReadsWallClock {
					pass.Reportf(n.Pos(),
						"call to %s transitively reads the wall clock (%s); model code must use the sim.Engine virtual clock",
						lint.FuncDisplay(fn), f.WallClockVia)
				}
			}
			return true
		})
	}
	return nil
}
