package main

import (
	"strings"

	"repro/tools/snicvet/internal/analyzers"
	"repro/tools/snicvet/internal/lint"
)

// Where the suite applies. The determinism and unit-safety invariants
// protect the simulation models and the public facade built on them —
// and, self-hostingly, the linter's own tree: snicvet's output must be
// deterministic for the build cache to work, so it lives by its own
// rules. cmd/ and examples/ are drivers and may read the wall clock,
// print maps for humans, and take literal flag defaults.
var checkedPkgPrefixes = []string{
	"repro/internal/",
	"repro/snic",
	"repro/tools/",
}

// Analyzers exempt in _test.go files. Benchmarks legitimately measure
// wall time, and tests pin exact float goldens against a fixed binary;
// detflow and seedrand stay on in tests because nondeterministic test
// *output* and reseeded streams break golden-file comparisons just as
// badly there.
var testFileExempt = map[string]bool{
	"wallclock": true,
	"floateq":   true,
}

// activeAnalyzers returns the analyzers that apply to a package, or
// nil if the package is out of scope (std, cmd/, examples/, tools/).
// External test packages (the "_test" suffix) follow the package they
// test.
func activeAnalyzers(pkgPath string) []*lint.Analyzer {
	p := strings.TrimSuffix(pkgPath, "_test")
	for _, prefix := range checkedPkgPrefixes {
		if p == strings.TrimSuffix(prefix, "/") || strings.HasPrefix(p, prefix) {
			return analyzers.All()
		}
	}
	return nil
}

// fileExempt removes individual files from one analyzer's view.
func fileExempt(analyzer, filename string) bool {
	return testFileExempt[analyzer] && strings.HasSuffix(filename, "_test.go")
}
