// Package analyzers holds the snicvet analysis passes. Each analyzer
// turns one of the simulator's determinism or unit-safety conventions
// into a compile-time checked property; see DESIGN.md §9 for the
// rationale behind the suite.
package analyzers

import "repro/tools/snicvet/internal/lint"

// All returns the full snicvet suite in reporting order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{Wallclock, Seedrand, Detflow, Hotpath, Unitcheck, Floateq}
}
