package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestReplayTraceConservation is the pre-checker conservation unit test:
// the replay's own counters must balance at drain, with or without
// checked mode.
func TestReplayTraceConservation(t *testing.T) {
	cfg, _ := Lookup("rem", "file_executable")
	tr := faultTestTrace()
	for _, checks := range []bool{false, true} {
		r := NewRunner()
		r.Checks = checks
		res := r.ReplayTrace(cfg, SNICCPU, tr, 7)
		if res.Sent == 0 {
			t.Fatalf("checks=%v: replay sent nothing", checks)
		}
		if res.Sent != res.Completed+res.Dropped {
			t.Fatalf("checks=%v: sent %d != completed %d + dropped %d",
				checks, res.Sent, res.Completed, res.Dropped)
		}
	}
}

// TestReplayServerConservation covers the fleet path's per-server
// request accounting the same way.
func TestReplayServerConservation(t *testing.T) {
	cfg, _ := Lookup("rem", "file_executable")
	rates := []float64{1.5, 2, 0.5, 3}
	for _, checks := range []bool{false, true} {
		r := NewRunner()
		r.Checks = checks
		rep := r.ReplayServer(cfg, HostCPU, rates, 400*sim.Microsecond, 5, "grp")
		if rep.Sent == 0 {
			t.Fatalf("checks=%v: server replay sent nothing", checks)
		}
		if rep.Sent != rep.Completed+rep.Dropped {
			t.Fatalf("checks=%v: sent %d != completed %d + dropped %d",
				checks, rep.Sent, rep.Completed, rep.Dropped)
		}
	}
}

// TestCheckedRunMatchesUnchecked runs one representative config of every
// run mode under checked execution: the checker must stay silent (no
// panic) and, being a pure observer, must not perturb the measurement.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	cases := []struct {
		function, variant string
		plat              Platform
	}{
		{"udp-echo", "1024B", HostCPU},   // net-served, host
		{"udp-echo", "1024B", SNICCPU},   // net-served, SNIC cores
		{"redis", "workload_a", SNICCPU}, // closed-loop net-served
		{"compress", "app", SNICAccel},   // accelerator sink (staging pool)
		{"crypto", "aes", SNICAccel},     // local mode onto the PKA engine
		{"crypto", "sha1", HostCPU},      // local mode, host rate path
		{"fio", "read", SNICCPU},         // storage mode
		{"ovs", "load100", SNICCPU},      // eSwitch-forwarded mode
	}
	for _, tc := range cases {
		t.Run(tc.function+"/"+tc.variant+"@"+string(tc.plat), func(t *testing.T) {
			cfg, err := Lookup(tc.function, tc.variant)
			if err != nil {
				t.Fatal(err)
			}
			opts := probeOpts(11)
			opts.OfferedGbps = 0.5
			plain := NewRunner()
			base := plain.Run(cfg, tc.plat, opts)
			checked := NewRunner()
			checked.Checks = true
			got := checked.Run(cfg, tc.plat, opts)
			if got != base {
				t.Fatalf("checked run diverged from unchecked:\n  base: %+v\n  got:  %+v", base, got)
			}
		})
	}
}

// Overload sheds requests at the queue; the ledger must account every
// one of them (a silent shed would trip Finish).
func TestCheckedOverloadAccountsSheds(t *testing.T) {
	cfg, _ := Lookup("udp-echo", "64B")
	r := NewRunner()
	r.Checks = true
	opts := probeOpts(3)
	opts.OfferedGbps = 2.0 // far beyond host capacity
	m := r.Run(cfg, HostCPU, opts)
	if m.DeliveredFrac > 0.9 {
		t.Fatalf("overload delivered %v — shedding never happened, test is vacuous", m.DeliveredFrac)
	}
}

// TestCheckedFaultedRuns puts every stock fault scenario through checked
// execution: crash failover, flap retries and throttle re-routing all
// keep the conservation ledger balanced (with straggler spans allowed).
func TestCheckedFaultedRuns(t *testing.T) {
	tr := faultTestTrace()
	scns := DefaultFaultScenarios(tr.Duration())
	plain := NewRunner()
	checked := NewRunner()
	checked.Checks = true
	for _, scn := range append([]FaultScenario{{Name: "baseline"}}, scns...) {
		base := plain.RunFaulted(scn, testRouter(), tr, 2, 42)
		got := checked.RunFaulted(scn, testRouter(), tr, 2, 42)
		if got != base {
			t.Fatalf("%s: checked faulted run diverged:\n  base: %+v\n  got:  %+v", scn.Name, base, got)
		}
		if got.Total != got.Completed+got.Dropped {
			t.Fatalf("%s: total %d != completed %d + dropped %d",
				scn.Name, got.Total, got.Completed, got.Dropped)
		}
	}
}

// TestCheckedRecordedBalancedRun puts balanced replays that lose work
// under checks and telemetry: one sheds at the host queue, the other
// leaves requests queued for staging past its horizon, where they count
// as dropped. Each result matches the bare run, and the recorder's
// request counters balance.
func TestCheckedRecordedBalancedRun(t *testing.T) {
	// A monitor cost of 10^7 cycles makes each staging job take
	// milliseconds, so most requests are still queued at the horizon.
	stalled := LoadBalancer{SpillQueueThreshold: 1 << 30, MonitorCycles: 1e7, ReactInterval: 100 * sim.Microsecond}
	for _, tc := range []struct {
		name string
		lb   LoadBalancer
		w    Workload
	}{
		{"shed at the host queue", DefaultLoadBalancer(), Workload{Kind: WorkloadBalanced,
			Trace: BurstyTrace(4, 99, 12, 2, 2*sim.Millisecond), HostCores: 2, Seed: 9}},
		{"queued past the horizon", stalled, Workload{Kind: WorkloadBalanced,
			Trace: BurstyTrace(1, 1, 10, 0, sim.Millisecond), Seed: 9}},
	} {
		tc.w.Balancer = &tc.lb
		bare, err := NewRunner().Execute(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner()
		r.Checks = true
		r.Telemetry = obs.NewCollector()
		got, err := r.Execute(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		if *got.Balanced != *bare.Balanced {
			t.Fatalf("%s: checked+recorded balanced run diverged:\n  bare: %+v\n  got:  %+v", tc.name, *bare.Balanced, *got.Balanced)
		}
		runs := r.Telemetry.Runs()
		if len(runs) != 1 {
			t.Fatalf("%s: %d recorded runs, want 1", tc.name, len(runs))
		}
		count := map[string]float64{}
		for _, c := range runs[0].Manifest().Counters {
			count[c.Name] = c.Value
		}
		sent, done, dropped := count["requests.sent"], count["requests.completed"], count["requests.dropped"]
		if dropped == 0 || dropped != float64(got.Balanced.Dropped) {
			t.Fatalf("%s: recorder dropped %v, result dropped %d: the run must lose work and both must agree",
				tc.name, dropped, got.Balanced.Dropped)
		}
		if sent == 0 || sent != done+dropped {
			t.Fatalf("%s: recorder sent %v != completed %v + dropped %v", tc.name, sent, done, dropped)
		}
	}
}

// A malformed plan must be rejected before anything is armed.
func TestRunFaultedRejectsInvalidPlan(t *testing.T) {
	tr := faultTestTrace()
	scn := DefaultFaultScenarios(tr.Duration())[0]
	scn.Plan.Events[0].For = -1
	defer func() {
		if recover() == nil {
			t.Fatal("invalid plan was armed")
		}
	}()
	NewRunner().RunFaulted(scn, testRouter(), tr, 2, 42)
}

// The fan-out forwards every station, link and batch callback to the
// resource's bound recorder, then its bound checker, and bind hands a
// resource the bare bound recorder or checker when only one is on, so
// the nil-observer fast path holds.
func TestObserverFanOut(t *testing.T) {
	rec := obs.NewRecorder(1, "run")
	chk := invariant.New("run").Soft()
	o := bind(rec, chk, "x")
	if _, ok := o.(*fanOut); !ok {
		t.Fatalf("recorder and checker together should fan out, got %T", o)
	}
	// The checker probes the station once per station callback. Each
	// probe finds the recorder has already counted that callback, and
	// the checker's clock at the callback's time.
	station := []string{"x.queued", "x.started", "x.finished", "x.dropped"}
	var probes []sim.Time
	chk.RegisterStation("x", 1, 8, func() (int, int) {
		counted := map[string]float64{}
		for _, c := range rec.Manifest().Counters {
			counted[c.Name] = c.Value
		}
		for i, name := range station {
			want := 0.0
			if i <= len(probes) {
				want = 1
			}
			if counted[name] != want {
				t.Errorf("probe %d: recorder counted %s = %v, want %v", len(probes)+1, name, counted[name], want)
			}
		}
		probes = append(probes, chk.Now())
		return 0, 0
	})
	o.JobQueued(1, 1)
	o.JobStarted(2, 1)
	o.JobFinished(2, 3)
	o.JobDropped(4)
	o.BatchFlushed(2, 0, 5)
	o.FrameSent(64, 5, 6, false)
	got := map[string]float64{}
	for _, c := range rec.Manifest().Counters {
		got[c.Name] = c.Value
	}
	want := map[string]float64{
		"x.queued": 1, "x.started": 1, "x.finished": 1, "x.dropped": 1, "x.peak_queue": 1,
		"x.batches": 1, "x.batch_tasks": 2, "x.frames": 1, "x.bytes": 64,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recorder counted %v, want %v", got, want)
	}
	if want := []sim.Time{1, 2, 3, 4}; !reflect.DeepEqual(probes, want) {
		t.Fatalf("checker probed the station at %v, want once per station callback at %v", probes, want)
	}
	// The checker saw the batch callback (its clock stands at the
	// batch's time) and checks the frames.
	if chk.Now() != 5 || chk.Err() != nil {
		t.Fatalf("checker at %v with %v, want at 5 and clean", chk.Now(), chk.Err())
	}
	o.FrameSent(64, 9, 8, false)
	var v *invariant.Violation
	if !errors.As(chk.Err(), &v) || v.Rule != invariant.RuleCausality || v.Station != "x" {
		t.Fatalf("checker err = %v, want a causality violation on x", chk.Err())
	}

	if bind(nil, nil, "x") != nil {
		t.Fatal("no recorder and no checker should leave resources unobserved")
	}
	if got, ok := bind(rec, nil, "x").(*obs.Resource); !ok || got != rec.Resource("x") {
		t.Fatalf("recorder alone should be observed bare, got %T", bind(rec, nil, "x"))
	}
	if got, ok := bind(nil, chk, "x").(*invariant.Resource); !ok || got != chk.Resource("x") {
		t.Fatalf("checker alone should be observed bare, got %T", bind(nil, chk, "x"))
	}
}
