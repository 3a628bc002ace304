package main

import "testing"

// The driver's package policy: the determinism suite guards the model
// packages, the public facade, and (self-hosting) the linter's own
// tree; cmd/ and examples/ drivers are exempt.
func TestActiveAnalyzers(t *testing.T) {
	active := []string{
		"repro/internal/sim",
		"repro/internal/funcs/nat",
		"repro/internal/nic",        // includes in-package _test.go units
		"repro/internal/stats_test", // external test packages follow their package
		"repro/snic",
		"repro/snic_test",
		"repro/tools/snicvet", // self-hosting: the linter lints itself
		"repro/tools/snicvet/internal/lint",
	}
	for _, p := range active {
		if got := activeAnalyzers(p); len(got) != 6 {
			t.Errorf("activeAnalyzers(%q) = %d analyzers, want full suite", p, len(got))
		}
	}
	exempt := []string{
		"repro",               // root package: benchmarks measure wall time
		"repro/cmd/snicbench", // drivers print for humans
		"repro/cmd/snicsim",
		"repro/examples/fleet",
		"fmt", // std dependencies pass through VetxOnly
		"time",
	}
	for _, p := range exempt {
		if got := activeAnalyzers(p); got != nil {
			t.Errorf("activeAnalyzers(%q) = %d analyzers, want none", p, len(got))
		}
	}
}

// File-level exemptions: benchmarks in _test.go legitimately time the
// host and pin exact float goldens; map-order and seeding rules stay on
// because nondeterministic test output breaks golden diffs too.
func TestFileExempt(t *testing.T) {
	cases := []struct {
		analyzer string
		filename string
		want     bool
	}{
		{"wallclock", "internal/nic/nic_test.go", true},
		{"floateq", "internal/stats/edge_test.go", true},
		{"wallclock", "internal/nic/nic.go", false},
		{"floateq", "internal/core/catalog.go", false},
		{"detflow", "internal/nic/nic_test.go", false},
		{"seedrand", "internal/trace/trace_test.go", false},
		{"unitcheck", "internal/core/parallel_test.go", false},
	}
	for _, c := range cases {
		if got := fileExempt(c.analyzer, c.filename); got != c.want {
			t.Errorf("fileExempt(%q, %q) = %v, want %v", c.analyzer, c.filename, got, c.want)
		}
	}
}
