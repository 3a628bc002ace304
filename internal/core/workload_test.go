package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The unified API contract: Execute dispatches to the same memoized
// implementations the legacy entry points adapt to, so results are
// byte-identical through either door.
func TestExecutePointMatchesRun(t *testing.T) {
	cfg, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Requests: 1200, WarmupFrac: 0.1, Seed: 4, OfferedGbps: 2}
	legacy := NewRunner().Run(cfg, HostCPU, opts)
	res, err := NewRunner().Execute(Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res.Point, legacy) {
		t.Fatalf("Execute diverges from Run:\n execute: %+v\n legacy:  %+v", *res.Point, legacy)
	}
}

func TestExecuteReplayMatchesReplayTrace(t *testing.T) {
	cfg, err := Lookup("rem", "file_executable")
	if err != nil {
		t.Fatal(err)
	}
	tr := BurstyTrace(3, 20, 10, 5, sim.Millisecond)
	legacy := NewRunner().ReplayTrace(cfg, HostCPU, tr, 21)
	res, err := NewRunner().Execute(Workload{Kind: WorkloadReplay, Config: cfg, Platform: HostCPU, Trace: tr, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res.Replay, legacy) {
		t.Fatalf("Execute diverges from ReplayTrace:\n execute: %+v\n legacy:  %+v", *res.Replay, legacy)
	}
}

// Validation rejects malformed workloads with typed errors before any
// simulation runs.
func TestWorkloadValidateTypedErrors(t *testing.T) {
	cfg, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	accel, err := Lookup("rem", "file_executable")
	if err != nil {
		t.Fatal(err)
	}
	_ = accel
	fio, err := Lookup("fio", "read")
	if err != nil {
		t.Fatal(err)
	}
	ovs, err := Lookup("ovs", "load10")
	if err != nil {
		t.Fatal(err)
	}
	aes, err := Lookup("crypto", "aes")
	if err != nil {
		t.Fatal(err)
	}
	tr := BurstyTrace(1, 2, 4, 2, sim.Millisecond)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		w     Workload
		field string
	}{
		{"unknown kind", Workload{Kind: "bogus"}, "Kind"},
		{"point no config", Workload{Kind: WorkloadPoint}, "Config"},
		{"point wrong platform", Workload{Kind: WorkloadPoint, Config: cfg, Platform: SNICAccel}, "Platform"},
		{"negative rate", Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU,
			Opts: RunOpts{OfferedGbps: -1}}, "Opts.OfferedGbps"},
		{"warmup out of range", Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU,
			Opts: RunOpts{WarmupFrac: 1}}, "Opts.WarmupFrac"},
		{"negative cores", Workload{Kind: WorkloadBalanced, HostCores: -2}, "HostCores"},
		{"replay no trace", Workload{Kind: WorkloadReplay, Config: cfg, Platform: HostCPU}, "Trace"},
		{"server no rates", Workload{Kind: WorkloadServer, Config: cfg, Platform: HostCPU,
			Interval: sim.Millisecond}, "Rates"},
		{"server negative rate", Workload{Kind: WorkloadServer, Config: cfg, Platform: HostCPU,
			Rates: []float64{1, -1}, Interval: sim.Millisecond}, "Rates"},
		{"faulted no router", Workload{Kind: WorkloadFaulted, Scenario: &FaultScenario{}}, "Router"},
		{"pipeline missing", Workload{Kind: WorkloadPipeline}, "Pipeline"},
		{"saturation negative bounds", Workload{Kind: WorkloadSaturation, Pipeline: NATIDSPipeline(),
			Saturation: SaturationOpts{MinGbps: -5}}, "Saturation"},
		// Open-loop drivers draw arrival gaps from the offered rate, so a
		// zero rate cannot run; closed-loop local mode ignores it.
		{"netserve zero rate", Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU,
			Opts: RunOpts{Requests: 50}}, "Opts.OfferedGbps"},
		{"storage zero rate", Workload{Kind: WorkloadPoint, Config: fio, Platform: HostCPU,
			Opts: RunOpts{Requests: 50}}, "Opts.OfferedGbps"},
		{"switched zero rate", Workload{Kind: WorkloadPoint, Config: ovs, Platform: HostCPU,
			Opts: RunOpts{Requests: 50}}, "Opts.OfferedGbps"},
		{"pipeline zero rate", Workload{Kind: WorkloadPipeline, Pipeline: NATIDSPipeline(),
			Opts: RunOpts{Requests: 50}}, "Opts.OfferedGbps"},
		{"NaN rate", Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU,
			Opts: RunOpts{Requests: 50, OfferedGbps: nan}}, "Opts.OfferedGbps"},
		{"infinite rate", Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU,
			Opts: RunOpts{Requests: 50, OfferedGbps: inf}}, "Opts.OfferedGbps"},
		{"negative infinite rate", Workload{Kind: WorkloadPipeline, Pipeline: NATIDSPipeline(),
			Opts: RunOpts{Requests: 50, OfferedGbps: -inf}}, "Opts.OfferedGbps"},
		{"infinite rate on any kind", Workload{Kind: WorkloadOffload,
			Opts: RunOpts{OfferedGbps: inf}}, "Opts.OfferedGbps"},
		{"server NaN rate", Workload{Kind: WorkloadServer, Config: cfg, Platform: HostCPU,
			Rates: []float64{1, nan}, Interval: sim.Millisecond}, "Rates"},
		{"server infinite rate", Workload{Kind: WorkloadServer, Config: cfg, Platform: HostCPU,
			Rates: []float64{inf}, Interval: sim.Millisecond}, "Rates"},
		{"replay NaN trace rate", Workload{Kind: WorkloadReplay, Config: cfg, Platform: HostCPU,
			Trace: &trace.HyperscalerTrace{Interval: sim.Millisecond, RatesGbps: []float64{nan}}}, "Trace.RatesGbps"},
		// Replays drive the net-serve path: a local config has no wire
		// size to pace arrivals by, a switched one no serving phase.
		{"replay of a local config", Workload{Kind: WorkloadReplay, Config: aes, Platform: HostCPU,
			Trace: tr}, "Config.Mode"},
		{"server of a switched config", Workload{Kind: WorkloadServer, Config: ovs, Platform: SNICAccel,
			Rates: []float64{1}, Interval: sim.Millisecond}, "Config.Mode"},
		{"replay of a storage config", Workload{Kind: WorkloadReplay, Config: fio, Platform: HostCPU,
			Trace: tr}, "Config.Mode"},
	}
	r := NewRunner()
	for _, tc := range cases {
		// Validate alone first: a case it wrongly accepts must fail the
		// test, not hang or panic inside a run.
		err := tc.w.Validate()
		var we *WorkloadError
		if !errors.As(err, &we) {
			t.Errorf("%s: want *WorkloadError, got %v", tc.name, err)
			continue
		}
		if we.Field != tc.field {
			t.Errorf("%s: flagged field %q, want %q", tc.name, we.Field, tc.field)
		}
		if _, xerr := r.Execute(tc.w); xerr == nil || xerr.Error() != err.Error() {
			t.Errorf("%s: Execute returned %v, want the validation error %v", tc.name, xerr, err)
		}
	}
}

// A config of no known mode is a typed error from Execute: Validate
// rejects it before the point run's mode dispatch, which would panic.
func TestExecuteRejectsUnknownMode(t *testing.T) {
	nat, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	cfg := *nat
	cfg.Mode = "bogus"
	for _, kind := range []WorkloadKind{WorkloadPoint, WorkloadReplay, WorkloadServer} {
		w := Workload{Kind: kind, Config: &cfg, Platform: HostCPU,
			Opts:  RunOpts{Requests: 50, OfferedGbps: 1},
			Trace: BurstyTrace(1, 2, 4, 2, sim.Millisecond), Rates: []float64{1}, Interval: sim.Millisecond}
		_, err := NewRunner().Execute(w)
		var we *WorkloadError
		if !errors.As(err, &we) || we.Field != "Config.Mode" {
			t.Errorf("%s of an unknown mode: Execute returned %v, want a *WorkloadError on Config.Mode", kind, err)
		}
	}
}

// A zero rate stays valid where nothing is driven open loop: a
// closed-loop local point runs, and a fleet server may idle an interval.
func TestWorkloadValidateAcceptsZeroRateWhereMeaningful(t *testing.T) {
	compress, err := Lookup("compress", "app")
	if err != nil {
		t.Fatal(err)
	}
	nat, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []Workload{
		{Kind: WorkloadPoint, Config: compress, Platform: HostCPU, Opts: RunOpts{Requests: 50}},
		{Kind: WorkloadServer, Config: nat, Platform: HostCPU, Rates: []float64{0, 1}, Interval: sim.Millisecond},
	} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s workload with a zero rate rejected: %v", w.Kind, err)
		}
	}
}

// Nested spec validators surface their own typed errors through Execute.
func TestExecutePropagatesNestedValidation(t *testing.T) {
	r := NewRunner()
	bad := NATIDSPipeline()
	bad.Phases[0].MemIntensity = 7
	_, err := r.Execute(Workload{Kind: WorkloadPipeline, Pipeline: bad})
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PipelineError through Execute, got %v", err)
	}
	lb := DefaultLoadBalancer()
	lb.SpillQueueThreshold = -1
	_, err = r.Execute(Workload{Kind: WorkloadBalanced, Balancer: &lb,
		Trace: BurstyTrace(1, 2, 4, 2, sim.Millisecond)})
	var pae *ParamError
	if !errors.As(err, &pae) {
		t.Fatalf("want *ParamError through Execute, got %v", err)
	}
}

// A faulted workload runs its router's balancer, its failover policy
// and its fault plan, so Execute rejects each when malformed, with the
// nested validator's typed error, before anything runs. A plan target
// the testbed does not have can only be resolved against the run's
// registry, so it fails from Execute rather than Validate.
func TestFaultedWorkloadValidation(t *testing.T) {
	tr := faultTestTrace()
	faulted := func(edit func(*FaultScenario, *HealthRouter)) Workload {
		scn := DefaultFaultScenarios(tr.Duration())[0]
		scn.Plan.Events = append([]fault.Event(nil), scn.Plan.Events...)
		hr := testRouter()
		edit(&scn, hr)
		return Workload{Kind: WorkloadFaulted, Scenario: &scn, Router: hr, Trace: tr, HostCores: 2, Seed: 1}
	}
	var pe *ParamError
	var ple *fault.PlanError
	cases := []struct {
		name      string
		w         Workload
		validated bool // rejected by Validate itself
		target    any
	}{
		{"zero load balancer", faulted(func(_ *FaultScenario, hr *HealthRouter) { hr.LB = LoadBalancer{} }), true, &pe},
		{"negative timeout", faulted(func(_ *FaultScenario, hr *HealthRouter) { hr.Policy.Timeout = -1 }), true, &pe},
		{"negative retries", faulted(func(_ *FaultScenario, hr *HealthRouter) { hr.Policy.MaxRetries = -1 }), true, &pe},
		{"infinite backoff multiplier", faulted(func(_ *FaultScenario, hr *HealthRouter) {
			hr.Policy.BackoffMult = math.Inf(1)
		}), true, &pe},
		// Retry schedules whose MaxDelay wraps sim.Duration: negative
		// (47 retries, or a 1e300 multiplier) or a 150-year horizon (48).
		{"47 retries overflow the schedule", faulted(func(_ *FaultScenario, hr *HealthRouter) { hr.Policy.MaxRetries = 47 }), true, &pe},
		{"48 retries overflow the schedule", faulted(func(_ *FaultScenario, hr *HealthRouter) { hr.Policy.MaxRetries = 48 }), true, &pe},
		{"huge multiplier overflows the schedule", faulted(func(_ *FaultScenario, hr *HealthRouter) {
			hr.Policy.BackoffMult, hr.Policy.MaxRetries = 1e300, 2
		}), true, &pe},
		{"non-positive fault window", faulted(func(scn *FaultScenario, _ *HealthRouter) { scn.Plan.Events[0].For = 0 }), true, &ple},
		{"unknown plan target", faulted(func(scn *FaultScenario, _ *HealthRouter) { scn.Plan.Events[0].Target = "nope" }), false, &ple},
	}
	r := NewRunner()
	for _, tc := range cases {
		if err := tc.w.Validate(); (err != nil) != tc.validated {
			t.Errorf("%s: Validate returned %v", tc.name, err)
			continue
		}
		_, err := r.Execute(tc.w)
		if !errors.As(err, tc.target) {
			t.Errorf("%s: Execute returned %v, want %T", tc.name, err, tc.target)
		}
	}
}

func TestLoadBalancerValidate(t *testing.T) {
	lb := DefaultLoadBalancer()
	if err := lb.Validate(); err != nil {
		t.Fatalf("default balancer should validate: %v", err)
	}
	lb.ReactInterval = 0
	var pe *ParamError
	if !errors.As(lb.Validate(), &pe) || pe.Param != "ReactInterval" {
		t.Fatalf("software balancer without ReactInterval should fail: %v", lb.Validate())
	}
	if err := HWLoadBalancer().Validate(); err != nil {
		t.Fatalf("hardware balancer should validate: %v", err)
	}
}

// A zero warmup, RunOpts' zero value and one Validate accepts, counts
// every completion, and so does a fraction that rounds to zero
// requests: a point run and a pipeline run each rate a full window.
func TestZeroWarmupMeasuresEveryCompletion(t *testing.T) {
	cfg, err := Lookup("udp-echo", "64B")
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, 1e-4} {
		opts := RunOpts{Requests: 2000, WarmupFrac: frac, Seed: 7, OfferedGbps: 0.2}
		res, err := NewRunner().Execute(Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if m := res.Point; m.Ops < 1800 || m.DeliveredFrac < 0.9 || m.Latency.P99 <= 0 {
			t.Fatalf("point run at warmup %g: %d ops, delivered %.3f, p99 %v; want ≥1800 ops of 2000 at the offered rate",
				frac, m.Ops, m.DeliveredFrac, m.Latency.P99)
		}
	}
	opts := RunOpts{Requests: 2000, Seed: 7, OfferedGbps: 1}
	res, err := NewRunner().Execute(Workload{Kind: WorkloadPipeline, Pipeline: NATIDSPipeline(), Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Pipeline.Point; m.Ops < 1800 || m.DeliveredFrac < 0.9 || m.Latency.P99 <= 0 {
		t.Fatalf("pipeline run at warmup 0: %d ops, delivered %.3f, p99 %v; want ≥1800 ops of 2000 at the offered rate",
			m.Ops, m.DeliveredFrac, m.Latency.P99)
	}
}

// RunPipeline is a door onto Execute: an operating point Execute
// rejects panics with Execute's typed error, not with whatever the
// simulator would have hit.
func TestRunPipelinePanicsWithWorkloadError(t *testing.T) {
	defer func() {
		err, _ := recover().(error)
		var we *WorkloadError
		if !errors.As(err, &we) || we.Field != "Opts.OfferedGbps" {
			t.Fatalf("RunPipeline at 0 Gb/s panicked with %v, want a *WorkloadError on Opts.OfferedGbps", err)
		}
	}()
	NewRunner().RunPipeline(NATIDSPipeline(), RunOpts{Requests: 100, Seed: 1})
}

// A point run's cap is opts.Requests even at zero: the open-loop client
// sends nothing and the run ends at once. Replays share the client
// with no cap, and reading zero as "no cap" would run this one until
// the test binary's timeout.
func TestZeroRequestPointRunSendsNothing(t *testing.T) {
	cfg, err := Lookup("udp-echo", "64B")
	if err != nil {
		t.Fatal(err)
	}
	m := NewRunner().Run(cfg, HostCPU, RunOpts{OfferedGbps: 1, Seed: 3})
	if m.Ops != 0 || m.Latency.Count != 0 {
		t.Fatalf("a point run of 0 requests measured %d ops and %d latencies", m.Ops, m.Latency.Count)
	}
}
