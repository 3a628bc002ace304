package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shortBursty is a trace small enough for unit tests: 20 intervals of
// 400 µs at sub-Gb/s rates.
func shortBursty() *trace.HyperscalerTrace {
	return BurstyTrace(0.4, 2, 20, 6, 400*sim.Microsecond)
}

func TestTelemetrySpanCountMatchesRequests(t *testing.T) {
	r := NewRunner()
	r.Telemetry = obs.NewCollector()
	cfg, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultRunOpts()
	opts.Requests = 500
	opts.OfferedGbps = 0.2
	r.Run(cfg, HostCPU, opts)

	runs := r.Telemetry.Runs()
	if len(runs) != 1 {
		t.Fatalf("run count = %d, want 1", len(runs))
	}
	rec := runs[0]
	if rec.RootCount() != opts.Requests {
		t.Fatalf("request root spans = %d, want %d", rec.RootCount(), opts.Requests)
	}
	if rec.OpenCount() != 0 {
		t.Fatalf("open spans = %d, want 0 (every request completed)", rec.OpenCount())
	}
	if rec.SpanCount() <= rec.RootCount() {
		t.Fatalf("expected stage children beyond the %d roots, got %d spans total",
			rec.RootCount(), rec.SpanCount())
	}
	m := rec.Manifest()
	if m.Requests != opts.Requests {
		t.Fatalf("manifest requests = %d, want %d", m.Requests, opts.Requests)
	}
	if rec.SampleCount() == 0 {
		t.Fatal("sampler recorded no metric samples")
	}
}

func TestTelemetryDoesNotPerturbMeasurement(t *testing.T) {
	cfg, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultRunOpts()
	opts.Requests = 400
	opts.OfferedGbps = 0.2

	plain := NewRunner()
	instrumented := NewRunner()
	instrumented.Telemetry = obs.NewCollector()
	a := plain.Run(cfg, HostCPU, opts)
	b := instrumented.Run(cfg, HostCPU, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("telemetry changed the measurement:\n  off %+v\n  on  %+v", a, b)
	}
}

// TestTelemetryExportsIdenticalAcrossParallelism runs the fault-scenario
// family — which fans across goroutines — at parallelism 1 and 8 and
// requires every export to be byte-identical.
func TestTelemetryExportsIdenticalAcrossParallelism(t *testing.T) {
	tr := shortBursty()
	exports := func(par int) (trace, csv, manifests, metrics []byte) {
		r := NewRunner()
		r.Parallelism = par
		r.Telemetry = obs.NewCollector()
		r.Telemetry.EnableTrace()
		mk := func() *HealthRouter {
			return NewHealthRouter(HWLoadBalancer(), DefaultFailoverPolicy())
		}
		r.RunFaultedSet(DefaultFaultScenarios(tr.Duration()), mk, tr, 2, 7)
		var bt, bc, bm, bj bytes.Buffer
		if err := r.Telemetry.WriteTrace(&bt); err != nil {
			t.Fatal(err)
		}
		if err := r.Telemetry.WriteMetricsCSV(&bc); err != nil {
			t.Fatal(err)
		}
		if err := r.Telemetry.WriteManifests(&bm); err != nil {
			t.Fatal(err)
		}
		if err := r.Telemetry.WriteMetricsJSON(&bj); err != nil {
			t.Fatal(err)
		}
		return bt.Bytes(), bc.Bytes(), bm.Bytes(), bj.Bytes()
	}
	t1, c1, m1, j1 := exports(1)
	t8, c8, m8, j8 := exports(8)
	if !bytes.Equal(t1, t8) {
		t.Error("trace export differs between parallelism 1 and 8")
	}
	if !bytes.Equal(c1, c8) {
		t.Error("metrics CSV differs between parallelism 1 and 8")
	}
	if !bytes.Equal(m1, m8) {
		t.Error("manifests differ between parallelism 1 and 8")
	}
	if !bytes.Equal(j1, j8) {
		t.Error("metrics JSON differs between parallelism 1 and 8")
	}
}

func TestFaultSensorDropoutSurfaced(t *testing.T) {
	// A trace long enough for the 100 ms Yocto-Watt cadence to tick, with
	// a dropout window swallowing some of those ticks.
	tr := BurstyTrace(0.05, 0.2, 40, 10, 10*sim.Millisecond) // 400 ms span
	var plan fault.Plan
	plan.Add(fault.Event{At: sim.Time(50 * sim.Millisecond), For: 250 * sim.Millisecond,
		Kind: fault.SensorDropout, Target: "yoctowatt"})
	scn := FaultScenario{Name: "sensor-gap", Desc: "yocto-watt offline", Plan: plan}

	r := NewRunner()
	hr := NewHealthRouter(HWLoadBalancer(), DefaultFailoverPolicy())
	res := r.RunFaulted(scn, hr, tr, 2, 11)
	if res.YoctoMissedSamples == 0 {
		t.Fatal("expected the dropout window to swallow Yocto-Watt samples")
	}
	if res.BMCMissedSamples != 0 {
		t.Fatalf("BMC was not dropped, missed = %d", res.BMCMissedSamples)
	}

	// The same replay without the dropout misses nothing.
	base := r.RunFaulted(FaultScenario{Name: "clean"}, hr, tr, 2, 11)
	if base.YoctoMissedSamples != 0 || base.BMCMissedSamples != 0 {
		t.Fatalf("clean replay reported missed samples: %+v", base)
	}
}

// Every resource instrumentTestbed binds carries traffic in some run,
// and every gauge it registers reads nonzero at least once: a resource
// or a gauge that stays zero under loads that queue every station is a
// model no request crosses. Each run loads one platform or engine past
// its capacity. A bound resource's gauges carry its name as their
// prefix (pool/host/queue is pool/host's), so the gauges name the bound
// resources too; the power gauges read the sensors, not a resource.
func TestInstrumentedResourcesCarryTraffic(t *testing.T) {
	// Eight staging cores let the REM engine, not its feed, saturate.
	fast := NewRunner()
	fast.TBConfig.StagingCores = 8
	// A 5 Gb/s wire queues frames both ways under redis's 11× larger
	// responses.
	slow := NewRunner()
	slow.TBConfig.LinkRateGbps = 5
	for _, r := range []*Runner{fast, slow} {
		r.Telemetry = obs.NewCollector()
	}
	for _, c := range []struct {
		r           *Runner
		fn, variant string
		plat        Platform
		gbps        float64
		requests    int
	}{
		{fast, "nat", "10K", HostCPU, 20, 3000},
		{fast, "nat", "10K", SNICCPU, 4, 3000},
		{fast, "rem", "file_image", SNICAccel, 90, 20000},
		{fast, "compress", "txt", SNICAccel, 0, 300},
		{fast, "crypto", "rsa", SNICAccel, 0, 300},
		{slow, "redis", "workload_a", HostCPU, 8, 3000},
	} {
		cfg, err := Lookup(c.fn, c.variant)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Engine == EnginePKAOp {
			// Sixteen operations in flight queue at the PKA.
			deep := *cfg
			deep.ClosedSNIC = 16
			cfg = &deep
		}
		opts := DefaultRunOpts()
		opts.OfferedGbps = c.gbps
		opts.Requests = c.requests
		if _, err := c.r.Execute(Workload{Kind: WorkloadPoint, Config: cfg, Platform: c.plat, Opts: opts}); err != nil {
			t.Fatal(err)
		}
	}

	nonzero := map[string]bool{} // gauge name → read nonzero
	var gauges []string          // in first-registration order
	counted := map[string]bool{} // resource with a nonzero counter
	for _, r := range []*Runner{fast, slow} {
		for _, rec := range r.Telemetry.Runs() {
			for _, s := range rec.Series() {
				if _, seen := nonzero[s.Name]; !seen {
					gauges = append(gauges, s.Name)
					nonzero[s.Name] = false
				}
				for _, v := range s.Values {
					if v != 0 {
						nonzero[s.Name] = true
						break
					}
				}
			}
			for _, c := range rec.Manifest().Counters {
				if i := strings.LastIndex(c.Name, "."); i > 0 && c.Value != 0 {
					counted[c.Name[:i]] = true
				}
			}
		}
	}
	if len(gauges) == 0 {
		t.Fatal("no gauges recorded")
	}
	for _, g := range gauges {
		if !nonzero[g] {
			t.Errorf("gauge %s read zero in every run", g)
		}
		if strings.HasPrefix(g, "power/") {
			continue
		}
		if res := g[:strings.LastIndex(g, "/")]; !counted[res] {
			t.Errorf("resource %s has no nonzero counter in any run's manifest", res)
		}
	}
}

// A finished run keeps none of its model: once the collector holds a
// recorded, checked run of each request path, or of a fleet server
// replay, the testbed's host CPU and memory specs are garbage while the
// runner, its collector and the run's result stay reachable. The specs
// are leaves only the model reaches. The testbed and the run's wiring
// sit in reference cycles (testbed → eSwitch sink → runctx → testbed),
// and Go runs no finalizer on an object in a cycle, so the finalizers go
// on the leaves.
func TestFinishedRunReleasesItsTestbed(t *testing.T) {
	nat, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	cases := append(auditWorkloads(t), struct {
		path string
		w    Workload
	}{"fleet server replay", Workload{Kind: WorkloadServer, Config: nat, Platform: HostCPU,
		Rates: []float64{0.3, 1, 0, 0.6}, Interval: sim.Millisecond, Seed: 5}})
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			r := NewRunner()
			r.Checks = true
			r.Telemetry = obs.NewCollector()
			set := 0
			// Each workload is one run with two leaves; the spare room
			// keeps a finalizer from ever blocking on the send.
			freed := make(chan struct{}, 8)
			r.finished = func(ctx *runctx) {
				for _, leaf := range []any{ctx.tb.HostMem, ctx.tb.HostSpec} {
					set++
					runtime.SetFinalizer(leaf, func(any) { freed <- struct{}{} })
				}
			}
			res, err := r.Execute(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if set == 0 {
				t.Fatal("no run finished")
			}
			if got := finalized(freed, set); got != set {
				t.Errorf("%d of %d testbed leaves are still reachable after the run finished", set-got, set)
			}
			if len(r.Telemetry.Runs()) == 0 {
				t.Fatal("the collector holds no run")
			}
			runtime.KeepAlive(r)
			runtime.KeepAlive(res)
		})
	}
}

// finalized runs up to three GC cycles, each followed by a wait for the
// finalizer goroutine, until n finalizers have signalled on freed, and
// returns how many did.
func finalized(freed <-chan struct{}, n int) int {
	got := 0
	for round := 0; round < 3 && got < n; round++ {
		runtime.GC()
		timeout := time.After(100 * time.Millisecond)
	wait:
		for got < n {
			select {
			case <-freed:
				got++
			case <-timeout:
				break wait
			}
		}
	}
	return got
}
