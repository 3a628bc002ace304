package core

import (
	"reflect"
	"testing"
)

// The tentpole contract: a single-phase pipeline converted from a
// catalog entry reproduces the legacy Run measurement bit for bit —
// same RNG streams, same float evaluation order, same event structure —
// on every platform family (host CPU, SNIC CPU, accelerator engine).
func TestSinglePhasePipelineBitIdentical(t *testing.T) {
	cases := []struct {
		fn, variant string
		plat        Platform
		gbps        float64
	}{
		{"nat", "10K", HostCPU, 2},
		{"nat", "10K", SNICCPU, 1},
		{"rem", "file_executable", HostCPU, 3},
		{"rem", "file_executable", SNICCPU, 1.5},
		{"rem", "file_executable", SNICAccel, 8},
	}
	for _, tc := range cases {
		cfg, err := Lookup(tc.fn, tc.variant)
		if err != nil {
			t.Fatal(err)
		}
		opts := RunOpts{Requests: 2000, WarmupFrac: 0.1, Seed: 11, OfferedGbps: tc.gbps}
		legacy := NewRunner().Run(cfg, tc.plat, opts)
		ps := PipelineFromConfig(cfg, tc.plat)
		pm := NewRunner().RunPipeline(ps, opts)
		got := pm.Point
		// Identity labels differ by design (pipeline name + policy key);
		// every measured number must match exactly.
		got.Function, got.Variant = legacy.Function, legacy.Variant
		if !reflect.DeepEqual(got, legacy) {
			t.Errorf("%s/%s on %s: pipeline diverges from legacy run\n pipeline: %+v\n legacy:   %+v",
				tc.fn, tc.variant, tc.plat, got, legacy)
		}
	}
}

// Saturation walks sample points in parallel; the result must be
// byte-identical at any parallelism.
func TestSaturationSearchParallelIdentical(t *testing.T) {
	so := SaturationOpts{Points: 4, MinGbps: 10, MaxGbps: 50, Requests: 1500, Seed: 3}
	mk := func(par int) SaturationResult {
		ps := NATIDSPipeline()
		ps.Fallback = SpillToHost{}
		r := NewRunner()
		r.Parallelism = par
		return r.SaturationSearch(ps, so)
	}
	seq, par := mk(1), mk(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("saturation search diverges between -j1 and -j8:\n seq: %+v\n par: %+v", seq, par)
	}
}

// Under a tiny accelerator queue and deep overload, DropWhenFull must
// shed with the conservation ledger intact (the run executes with
// checks on: any imbalance panics), and the per-phase tallies must
// account for every injected request.
func TestFallbackConservationUnderFullQueues(t *testing.T) {
	ps := NATIDSPipeline()
	ps.Fallback = DropWhenFull{}
	ps.Phases[1].QueueCap = 4
	r := NewRunner()
	r.Checks = true
	opts := RunOpts{Requests: 3000, Seed: 5, OfferedGbps: 60}
	pm := r.RunPipeline(ps, opts)
	if pm.Dropped == 0 {
		t.Fatal("expected drops with a 4-deep accelerator queue under overload")
	}
	nat, ids := pm.Phases[0], pm.Phases[1]
	if n := nat.Served + nat.Spilled + nat.Dropped; n != 3000 {
		t.Fatalf("first phase accounts for %d of 3000 requests", n)
	}
	if n := ids.Served + ids.Spilled + ids.Dropped; n != nat.Served {
		t.Fatalf("second phase accounts for %d, first phase passed on %d", n, nat.Served)
	}
}

// The same overload with SpillToHost redirects to host cores instead of
// shedding — still conservation-clean (checks on).
func TestSpillToHostRedirectsUnderFullQueues(t *testing.T) {
	ps := NATIDSPipeline()
	ps.Fallback = SpillToHost{Watermark: 2}
	ps.Phases[1].QueueCap = 4
	r := NewRunner()
	r.Checks = true
	opts := RunOpts{Requests: 3000, Seed: 5, OfferedGbps: 60}
	pm := r.RunPipeline(ps, opts)
	if pm.Spilled == 0 {
		t.Fatal("expected spills with watermark 2 under overload")
	}
	ids := pm.Phases[1]
	if n := ids.Served + ids.Spilled + ids.Dropped; n != pm.Phases[0].Served {
		t.Fatalf("engine phase accounts for %d, upstream passed on %d", n, pm.Phases[0].Served)
	}
}

// The acceptance criterion: the saturation search separates the
// policies. On both tax chains, spilling to host cores pushes the knee
// past the accelerator-only knee.
func TestFallbackPoliciesSeparateKnees(t *testing.T) {
	so := SaturationOpts{Points: 6, MinGbps: 15, MaxGbps: 70, Requests: 2500, Seed: 42}
	for _, mk := range []func() *PipelineSpec{CryptoCompressSendPipeline, NATIDSPipeline} {
		knee := func(pol FallbackPolicy) float64 {
			ps := mk()
			ps.Fallback = pol
			r := NewRunner()
			r.Parallelism = 4
			return r.SaturationSearch(ps, so).KneeGbps
		}
		name := mk().Name
		drop, spill := knee(DropWhenFull{}), knee(SpillToHost{})
		if drop <= 0 || spill <= 0 {
			t.Errorf("%s: both walks should find a knee: drop %.2f, spill %.2f", name, drop, spill)
			continue
		}
		if spill <= drop {
			t.Errorf("%s: spill-to-host knee %.2f Gb/s should exceed drop knee %.2f Gb/s", name, spill, drop)
		}
	}
}

// Validation rejects malformed pipelines with typed errors carrying the
// pipeline, phase and field.
func TestPipelineValidateTypedErrors(t *testing.T) {
	valid := func() *PipelineSpec { return NATIDSPipeline() }
	cases := []struct {
		name  string
		build func() *PipelineSpec
		field string
	}{
		{"no name", func() *PipelineSpec { ps := valid(); ps.Name = ""; return ps }, "Name"},
		{"no phases", func() *PipelineSpec { ps := valid(); ps.Phases = nil; return ps }, "Phases"},
		{"bad req size", func() *PipelineSpec { ps := valid(); ps.Mixed = false; ps.ReqSize = 0; return ps }, "ReqSize"},
		{"dup phase", func() *PipelineSpec {
			ps := valid()
			ps.Phases[1].Name = ps.Phases[0].Name
			return ps
		}, "Name"},
		{"engine on cpu phase", func() *PipelineSpec {
			ps := valid()
			ps.Phases[0].Engine = EngineREM
			return ps
		}, "Engine"},
		{"engine phase unbound", func() *PipelineSpec {
			ps := valid()
			ps.Phases[1].Engine = EngineNone
			return ps
		}, "Engine"},
		{"negative cycles", func() *PipelineSpec {
			ps := valid()
			ps.Phases[0].BaseCycles = -1
			return ps
		}, "cycles"},
		{"mem intensity", func() *PipelineSpec {
			ps := valid()
			ps.Phases[0].MemIntensity = 1.5
			return ps
		}, "MemIntensity"},
	}
	for _, tc := range cases {
		err := tc.build().Validate()
		pe, ok := err.(*PipelineError)
		if !ok {
			t.Errorf("%s: want *PipelineError, got %v", tc.name, err)
			continue
		}
		if pe.Field != tc.field {
			t.Errorf("%s: flagged field %q, want %q", tc.name, pe.Field, tc.field)
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("exemplar spec should validate: %v", err)
	}
}
