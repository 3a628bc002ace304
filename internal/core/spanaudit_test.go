package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// auditWorkloads is one small workload per request path: a net-served
// point run, local mode, storage, the switched datapath, a pipeline, a
// flow offload replay, a balanced replay and a failover replay.
func auditWorkloads(t *testing.T) []struct {
	path string
	w    Workload
} {
	t.Helper()
	point := func(function, variant string, plat Platform, gbps float64) Workload {
		cfg, err := Lookup(function, variant)
		if err != nil {
			t.Fatal(err)
		}
		return Workload{Kind: WorkloadPoint, Config: cfg, Platform: plat,
			Opts: RunOpts{Requests: 2000, WarmupFrac: 0.1, Seed: 3, OfferedGbps: gbps}}
	}
	pipeline := NATIDSPipeline()
	pipeline.Fallback = SpillToHost{}
	offload := DefaultOffloadSpec()
	offload.Trace = BurstyTrace(6, 26, 4, 2, 2*sim.Millisecond)
	// The throttle wedges the staging queue, so requests retry while
	// their first copies still wait there: those copies are served after
	// their requests resolved, and record stale spans.
	ftr := faultTestTrace()
	throttle := DefaultFaultScenarios(ftr.Duration())[2]
	sw := DefaultLoadBalancer()
	return []struct {
		path string
		w    Workload
	}{
		{"net-serve point", point("nat", "10K", HostCPU, 2)},
		{"local", point("compress", "app", SNICAccel, 0)},
		{"storage", point("fio", "read", HostCPU, 40)},
		{"switched", point("ovs", "load10", HostCPU, 9)},
		{"pipeline", Workload{Kind: WorkloadPipeline, Pipeline: pipeline,
			Opts: RunOpts{Requests: 2000, WarmupFrac: 0.1, Seed: 3, OfferedGbps: 40}}},
		{"offload", Workload{Kind: WorkloadOffload, Offload: &offload}},
		{"balanced", Workload{Kind: WorkloadBalanced, Balancer: &sw,
			Trace: BurstyTrace(4, 60, 6, 4, 2*sim.Millisecond), HostCores: 4, Seed: 9}},
		{"faulted", Workload{Kind: WorkloadFaulted, Scenario: &throttle, Router: testRouter(),
			Trace: ftr, HostCores: 2, Seed: 7}},
	}
}

// Every child span a run records passes the online audit: on one
// checked and recorded run per request path, the checker audited
// exactly the recorder's child spans (every span but the request
// roots). A hook that records a span without auditing it, or audits
// one it does not record, fails.
func TestCheckerAuditsEveryRecordedSpan(t *testing.T) {
	for _, tc := range auditWorkloads(t) {
		t.Run(tc.path, func(t *testing.T) {
			r := NewRunner()
			r.Checks = true
			r.Telemetry = obs.NewCollector()
			var audited uint64
			children := 0
			r.finished = func(ctx *runctx) {
				audited += ctx.chk.Spans()
				children += ctx.rec.SpanCount() - ctx.rec.RootCount()
			}
			if _, err := r.Execute(tc.w); err != nil {
				t.Fatal(err)
			}
			if children == 0 {
				t.Fatal("the run recorded no child span")
			}
			if audited != uint64(children) {
				t.Fatalf("checker audited %d spans, recorder holds %d child spans", audited, children)
			}
		})
	}
}

// A recorded run without EnableTrace counts its spans for the manifest
// and stores none: its recorder holds no span even before the collector
// takes it. A traced run of the same workload stores every span.
func TestUntracedRunStoresNoSpans(t *testing.T) {
	w := auditWorkloads(t)[0].w
	for _, traced := range []bool{false, true} {
		r := NewRunner()
		r.Telemetry = obs.NewCollector()
		if traced {
			r.Telemetry.EnableTrace()
		}
		var rec *obs.Recorder
		stored := false
		r.finished = func(ctx *runctx) {
			rec = ctx.rec
			_, stored = rec.View(obs.SpanID(rec.SpanCount()))
		}
		if _, err := r.Execute(w); err != nil {
			t.Fatal(err)
		}
		if rec.RootCount() != w.Opts.Requests || rec.SpanCount() <= rec.RootCount() {
			t.Fatalf("traced=%v: recorder counted %d spans for %d roots, want children beyond %d roots",
				traced, rec.SpanCount(), rec.RootCount(), w.Opts.Requests)
		}
		if stored != traced {
			t.Fatalf("traced=%v: recorder stored its spans = %v before Attach", traced, stored)
		}
		if _, ok := rec.View(1); ok != traced {
			t.Fatalf("traced=%v: recorder stored its spans = %v after Attach", traced, ok)
		}
	}
}
