package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/sim"
)

// shortOffloadSpec shrinks the default scenario for fast unit tests.
func shortOffloadSpec() OffloadSpec {
	spec := DefaultOffloadSpec()
	spec.Trace = BurstyTrace(6, 26, 8, 3, sim.Millisecond)
	return spec
}

func TestOffloadSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*OffloadSpec)
	}{
		{"nil trace", func(s *OffloadSpec) { s.Trace = nil }},
		{"bad mix", func(s *OffloadSpec) { s.Mix.Concurrency = 0 }},
		{"bad table", func(s *OffloadSpec) { s.Table.Capacity = 0 }},
		{"bad static threshold", func(s *OffloadSpec) {
			s.Policy = OffloadPolicy{Kind: OffloadStaticFlow, Threshold: 0}
		}},
		{"bad adaptive", func(s *OffloadSpec) {
			s.Policy = OffloadPolicy{Kind: OffloadAdaptive}
		}},
		{"unknown policy", func(s *OffloadSpec) { s.Policy = OffloadPolicy{Kind: "bogus"} }},
		{"zero control interval", func(s *OffloadSpec) { s.ControlInterval = 0 }},
		{"zero slo", func(s *OffloadSpec) { s.SLO = 0 }},
		{"zero pkt size", func(s *OffloadSpec) { s.PktSize = 0 }},
		{"negative cycles", func(s *OffloadSpec) { s.SlowBaseCycles = -1 }},
		{"negative sigma", func(s *OffloadSpec) { s.SlowSigma = -0.1 }},
		{"zero queue", func(s *OffloadSpec) { s.QueueCap = 0 }},
	}
	r := NewRunner()
	for _, tc := range cases {
		spec := DefaultOffloadSpec()
		tc.mutate(&spec)
		_, err := r.Execute(Workload{Kind: WorkloadOffload, Offload: &spec})
		var we *WorkloadError
		if !errors.As(err, &we) {
			t.Errorf("%s: want *WorkloadError, got %v", tc.name, err)
		}
	}
	if _, err := NewRunner().Execute(Workload{Kind: WorkloadOffload}); err == nil {
		t.Error("nil Offload spec should be rejected")
	}
}

func TestOffloadConservation(t *testing.T) {
	r := NewRunner()
	r.Checks = true // a violation panics the run
	res := r.RunOffload(shortOffloadSpec())
	if res.Sent == 0 {
		t.Fatal("run sent nothing")
	}
	if res.FastPath+res.SlowPath != res.Sent {
		t.Fatalf("datapath split leaks: fast %d + slow %d != sent %d",
			res.FastPath, res.SlowPath, res.Sent)
	}
	if res.Completed+res.Dropped != res.Sent {
		t.Fatalf("request ledger leaks: done %d + dropped %d != sent %d",
			res.Completed, res.Dropped, res.Sent)
	}
	if res.SLOAttainment < 0 || res.SLOAttainment > 1 {
		t.Fatalf("SLO attainment out of range: %g", res.SLOAttainment)
	}
	if res.DropRate < 0 || res.DropRate > 1 {
		t.Fatalf("drop rate out of range: %g", res.DropRate)
	}
	if res.OccupancyPeak > flow.DefaultTableConfig().Capacity {
		t.Fatalf("occupancy peak %d exceeds capacity", res.OccupancyPeak)
	}
}

func TestOffloadExperimentParallelDeterminism(t *testing.T) {
	spec := shortOffloadSpec()
	pols := DefaultOffloadPolicies()

	seq := NewRunner()
	seq.Parallelism = 1
	a := seq.OffloadExperiment(spec, pols)

	par := NewRunner()
	par.Parallelism = 8
	b := par.OffloadExperiment(spec, pols)

	if !reflect.DeepEqual(a, b) {
		t.Fatalf("offload experiment diverges across -j:\nseq: %+v\npar: %+v", a, b)
	}
}

// The headline claim of the offload experiment: under flow churn the
// adaptive controller beats BOTH static policies on SLO attainment at
// equal load. Static per-function floods the insert path and thrashes
// the bounded table; a fixed threshold either reacts too slowly in calm
// periods or too eagerly in churny ones.
func TestOffloadAdaptiveBeatsStaticUnderChurn(t *testing.T) {
	r := NewRunner()
	res := r.OffloadExperiment(DefaultOffloadSpec(), DefaultOffloadPolicies())
	if len(res) != 3 {
		t.Fatalf("want 3 policies, got %d", len(res))
	}
	staticFunc, staticFlow, adaptive := res[0], res[1], res[2]
	t.Logf("static-func: slo=%.4f drop=%.4f fast=%.3f p99=%v thrash=%d rejects=%d",
		staticFunc.SLOAttainment, staticFunc.DropRate, staticFunc.FastPathShare(),
		staticFunc.P99, staticFunc.Thrash, staticFunc.InsertRejects)
	t.Logf("static-flow: slo=%.4f drop=%.4f fast=%.3f p99=%v thrash=%d rejects=%d",
		staticFlow.SLOAttainment, staticFlow.DropRate, staticFlow.FastPathShare(),
		staticFlow.P99, staticFlow.Thrash, staticFlow.InsertRejects)
	t.Logf("adaptive:    slo=%.4f drop=%.4f fast=%.3f p99=%v thrash=%d rejects=%d K=[%d..%d]->%d",
		adaptive.SLOAttainment, adaptive.DropRate, adaptive.FastPathShare(),
		adaptive.P99, adaptive.Thrash, adaptive.InsertRejects,
		adaptive.ThresholdMin, adaptive.ThresholdMax, adaptive.ThresholdFinal)
	if adaptive.SLOAttainment <= staticFunc.SLOAttainment {
		t.Errorf("adaptive (%.4f) should beat static-func (%.4f) on SLO attainment",
			adaptive.SLOAttainment, staticFunc.SLOAttainment)
	}
	if adaptive.SLOAttainment <= staticFlow.SLOAttainment {
		t.Errorf("adaptive (%.4f) should beat static-flow (%.4f) on SLO attainment",
			adaptive.SLOAttainment, staticFlow.SLOAttainment)
	}
}
