package core

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/trace"
)

// faultTestTrace is a short stationary trace: 120 × 400 µs at 2 Gb/s
// (~8k MTU requests), small enough for unit tests but long enough to
// fit a fault window and a post-fault population.
func faultTestTrace() *trace.HyperscalerTrace {
	rates := make([]float64, 120)
	for i := range rates {
		rates[i] = 2
	}
	return &trace.HyperscalerTrace{Interval: 400 * sim.Microsecond, RatesGbps: rates}
}

func testRouter() *HealthRouter {
	return NewHealthRouter(HWLoadBalancer(), DefaultFailoverPolicy())
}

func TestHealthRouterRoutes(t *testing.T) {
	hr := testRouter()
	if got := hr.Route(accel.Healthy, 0); got != nic.ToAccelerator {
		t.Fatalf("healthy idle engine routed to %v", got)
	}
	if got := hr.Route(accel.Down, 0); got != nic.ToHostCPU {
		t.Fatalf("down engine routed to %v", got)
	}
	if got := hr.Route(accel.Stalled, 0); got != nic.ToHostCPU {
		t.Fatalf("stalled engine routed to %v", got)
	}
	over := hr.Policy.QueueWatermark + 1
	if got := hr.Route(accel.Healthy, over); got != nic.ToHostCPU {
		t.Fatalf("backlog %d above watermark routed to %v", over, got)
	}
}

func TestBackoffSchedule(t *testing.T) {
	pol := DefaultFailoverPolicy()
	want := []sim.Duration{100 * sim.Microsecond, 200 * sim.Microsecond, 400 * sim.Microsecond, 800 * sim.Microsecond}
	for i, w := range want {
		if got := pol.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// 5 timeout windows of 300 µs plus the 4 backoffs above.
	if got, want := pol.MaxDelay(), 3*sim.Millisecond; got != want {
		t.Fatalf("MaxDelay = %v, want %v", got, want)
	}
	// The longest default schedule that fits in sim.Duration is
	// accepted with its exact sum; one more retry overflows and is
	// rejected.
	pol.MaxRetries = 46
	if err := pol.Validate(); err != nil {
		t.Fatalf("46 retries rejected: %v", err)
	}
	// 47 timeouts plus backoffs of 100 µs × (2^46 − 1).
	if got, want := pol.MaxDelay(), 47*pol.Timeout+(1<<46-1)*pol.BackoffBase; got != want {
		t.Fatalf("MaxDelay = %v, want %v", got, want)
	}
	pol.MaxRetries = 47
	var pe *ParamError
	if !errors.As(pol.Validate(), &pe) || pe.Param != "MaxRetries" {
		t.Fatalf("47 retries accepted: %v", pol.Validate())
	}
}

func TestRunFaultedDeterministic(t *testing.T) {
	tr := faultTestTrace()
	scn := DefaultFaultScenarios(tr.Duration())[0]
	r := NewRunner()
	a := r.RunFaulted(scn, testRouter(), tr, 2, 99)
	b := r.RunFaulted(scn, testRouter(), tr, 2, 99)
	if a != b {
		t.Fatalf("same seed diverged:\n  a: %+v\n  b: %+v", a, b)
	}
	if a.Total == 0 || a.Completed == 0 {
		t.Fatalf("replay did no work: %+v", a)
	}
}

// p99Recovers asserts the experiment family's headline invariant:
// after the fault window, p99 returns to within 10% of the fault-free
// baseline.
func p99Recovers(t *testing.T, res FaultResult, base FaultResult) {
	t.Helper()
	if res.P99Post == 0 {
		t.Fatalf("%s: no post-fault population", res.Scenario)
	}
	limit := sim.Duration(float64(base.P99) * 1.10)
	if res.P99Post > limit {
		t.Fatalf("%s: post-fault p99 %v did not recover to within 10%% of baseline %v",
			res.Scenario, res.P99Post, base.P99)
	}
}

func TestAccelCrashFailsOverToHost(t *testing.T) {
	tr := faultTestTrace()
	scns := DefaultFaultScenarios(tr.Duration())
	r := NewRunner()
	base := r.RunFaulted(FaultScenario{Name: "baseline"}, testRouter(), tr, 2, 7)
	res := r.RunFaulted(scns[0], testRouter(), tr, 2, 7)

	if res.Dropped != 0 {
		t.Fatalf("crash with failover dropped %d requests", res.Dropped)
	}
	if res.HostShare < base.HostShare+0.1 {
		t.Fatalf("crash host share %.3f barely above baseline %.3f — no failover happened",
			res.HostShare, base.HostShare)
	}
	if res.Transitions != 2 {
		t.Fatalf("crash logged %d transitions, want begin+clear", res.Transitions)
	}
	p99Recovers(t, res, base)
}

func TestLinkFlapRetriesRescue(t *testing.T) {
	tr := faultTestTrace()
	scns := DefaultFaultScenarios(tr.Duration())
	r := NewRunner()
	base := r.RunFaulted(FaultScenario{Name: "baseline"}, testRouter(), tr, 2, 7)
	res := r.RunFaulted(scns[1], testRouter(), tr, 2, 7)

	if res.WireFramesLost == 0 {
		t.Fatal("flap lost no frames — the fault never landed")
	}
	if res.Retries == 0 || res.Rescued == 0 {
		t.Fatalf("flap recovered without retries (retries=%d rescued=%d)", res.Retries, res.Rescued)
	}
	if res.Dropped != 0 {
		t.Fatalf("flap dropped %d requests despite the retry budget covering the window", res.Dropped)
	}
	if res.MinDeliveredFrac > 0.5 {
		t.Fatalf("flap delivered fraction only dipped to %.2f; a dead wire should starve whole intervals",
			res.MinDeliveredFrac)
	}
	// Every fault-era request resolves within the policy's worst-case
	// retry schedule plus queue drain.
	bound := testRouter().Policy.MaxDelay() + 5*sim.Millisecond
	if res.RecoveryTime > bound {
		t.Fatalf("recovery took %v, beyond the backoff-schedule bound %v", res.RecoveryTime, bound)
	}
	p99Recovers(t, res, base)
}

func TestSnicThrottleReroutes(t *testing.T) {
	tr := faultTestTrace()
	scns := DefaultFaultScenarios(tr.Duration())
	r := NewRunner()
	base := r.RunFaulted(FaultScenario{Name: "baseline"}, testRouter(), tr, 2, 7)
	res := r.RunFaulted(scns[2], testRouter(), tr, 2, 7)

	if res.HostShare <= base.HostShare {
		t.Fatalf("throttle host share %.3f not above baseline %.3f — watermark never re-routed",
			res.HostShare, base.HostShare)
	}
	if res.P99Fault <= base.P99 {
		t.Fatalf("throttle p99 %v during the fault not above baseline %v — the fault had no effect",
			res.P99Fault, base.P99)
	}
	p99Recovers(t, res, base)
}

func TestBaselineRunIsCleanAndFaultFree(t *testing.T) {
	tr := faultTestTrace()
	r := NewRunner()
	base := r.RunFaulted(FaultScenario{Name: "baseline"}, testRouter(), tr, 2, 7)
	if base.Transitions != 0 || base.WireFramesLost != 0 || base.EngineRejected != 0 {
		t.Fatalf("baseline saw faults: %+v", base)
	}
	if base.Dropped != 0 {
		t.Fatalf("baseline dropped %d requests", base.Dropped)
	}
	// ~68 packets per interval makes the per-interval delivered fraction
	// noisy at the ±10% level even fault-free.
	if base.MinDeliveredFrac < 0.8 {
		t.Fatalf("baseline delivered fraction dipped to %.3f", base.MinDeliveredFrac)
	}
	if base.Completed != base.Total {
		t.Fatalf("baseline completed %d of %d", base.Completed, base.Total)
	}
}
