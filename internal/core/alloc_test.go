package core

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Dynamic counterpart of the hotpath annotations on the request path:
// every driver takes its request records, client packets and jobs from
// per-run free lists, so once the lists cover a run's peak in flight a
// request allocates nothing, whether it is a point run, a replay, a
// pipeline stepping through its phases or an offload packet on either
// datapath. What is left is per-run set-up (testbed, histogram,
// free-list growth), which a few thousand requests amortize to a few
// hundredths of an allocation per event.

// maxAllocsPerEvent bounds heap allocations per simulated event on one
// warmed run of each driver. The drivers measure 0.002–0.035 here,
// while a closure per hop costs these runs 1.0–5.2, so the bound sits
// well clear of both. Checked and recorded runs stay under the same
// bound: the span audit compares each span as it is recorded, the
// checker's ledgers are dense tables, and a recorder whose collector
// writes no trace stores no spans.
const maxAllocsPerEvent = 0.1

// allocsPerEvent runs w once to warm process-wide state (the catalog,
// compiled rule sets, interned names), then again on a fresh runner with
// a profiler attached, and returns the second run's heap allocations per
// profiled engine event. recorded runs both with invariant checks and a
// telemetry collector.
func allocsPerEvent(t *testing.T, w Workload, recorded bool) float64 {
	t.Helper()
	newRunner := func() *Runner {
		r := NewRunner()
		if recorded {
			r.Checks = true
			r.Telemetry = obs.NewCollector()
		}
		return r
	}
	if _, err := newRunner().Execute(w); err != nil {
		t.Fatal(err)
	}
	r := newRunner()
	prof := NewProfiler()
	r.SetProfiler(prof)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := r.Execute(w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	events := prof.Snapshot().Events
	if events == 0 {
		t.Fatal("run fired no events")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(events)
}

func TestRequestPathAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fifteen simulations")
	}
	point := func(function, variant string, plat Platform, gbps float64) Workload {
		cfg, err := Lookup(function, variant)
		if err != nil {
			t.Fatal(err)
		}
		return Workload{Kind: WorkloadPoint, Config: cfg, Platform: plat,
			Opts: RunOpts{Requests: 20000, WarmupFrac: 0.1, Seed: 3, OfferedGbps: gbps}}
	}
	nat, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.3, 1, 0, 0.6, 1.2, 0.2}
	pipeline := func(ps *PipelineSpec, fallback FallbackPolicy, gbps float64) Workload {
		ps.Fallback = fallback
		return Workload{Kind: WorkloadPipeline, Pipeline: ps,
			Opts: RunOpts{Requests: 20000, WarmupFrac: 0.1, Seed: 3, OfferedGbps: gbps}}
	}
	offload := DefaultOffloadSpec()
	offload.Trace = BurstyTrace(6, 26, 10, 5, 2*sim.Millisecond)
	// The throttle wedges the staging queue, so hundreds of requests
	// retry (743 of 8,146) while their first copies still wait there.
	ftr := faultTestTrace()
	throttle := DefaultFaultScenarios(ftr.Duration())[2]
	faulted := Workload{Kind: WorkloadFaulted, Scenario: &throttle, Router: testRouter(),
		Trace: ftr, HostCores: 2, Seed: 7}
	sw := DefaultLoadBalancer()
	balanced := Workload{Kind: WorkloadBalanced, Balancer: &sw,
		Trace: BurstyTrace(4, 60, 12, 4, 2*sim.Millisecond), HostCores: 4, Seed: 9}
	for _, tc := range []struct {
		driver   string
		w        Workload
		recorded bool
	}{
		{"netserve on host cores", point("nat", "10K", HostCPU, 2), false},
		{"netserve through the REM engine", point("rem", "file_executable", SNICAccel, 20), false},
		{"local through the Deflate engine", point("compress", "app", SNICAccel, 0), false},
		{"storage", point("fio", "read", HostCPU, 40), false},
		{"switched", point("ovs", "load10", HostCPU, 9), false},
		{"fleet server replay", Workload{Kind: WorkloadServer, Config: nat, Platform: HostCPU,
			Rates: rates, Interval: sim.Millisecond, Seed: 5}, false},
		// A quarter of the requests spill from the IDS engine to host
		// cores.
		{"NAT→IDS pipeline spilling to host", pipeline(NATIDSPipeline(), SpillToHost{}, 40), false},
		{"crypto→compress→send pipeline", pipeline(CryptoCompressSendPipeline(), DropWhenFull{}, 10), false},
		// Both datapaths: about 9% of packets take the fast path.
		{"flow offload", Workload{Kind: WorkloadOffload, Offload: &offload}, false},
		{"balanced replay under the software balancer", balanced, false},
		// The same drivers checked and recorded: every hook of the
		// checker and the recorder fires, and each span is audited as
		// it is recorded and counted, not stored.
		{"checked+recorded netserve on host cores", point("nat", "10K", HostCPU, 2), true},
		{"checked+recorded NAT→IDS pipeline spilling to host", pipeline(NATIDSPipeline(), SpillToHost{}, 40), true},
		{"checked+recorded crypto→compress→send pipeline", pipeline(CryptoCompressSendPipeline(), DropWhenFull{}, 10), true},
		{"checked+recorded flow offload", Workload{Kind: WorkloadOffload, Offload: &offload}, true},
		{"checked+recorded failover replay under a staging throttle", faulted, true},
	} {
		got := allocsPerEvent(t, tc.w, tc.recorded)
		t.Logf("%s: %.4f allocs/event", tc.driver, got)
		if got > maxAllocsPerEvent {
			t.Errorf("%s allocates %.3f times per event, want at most %v",
				tc.driver, got, maxAllocsPerEvent)
		}
	}
}
