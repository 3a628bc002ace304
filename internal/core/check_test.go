package core

import (
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

// recordingObserver logs every observer callback it receives.
type recordingObserver struct{ events []string }

func (o *recordingObserver) JobQueued(s string, _ sim.Time, _ int) {
	o.events = append(o.events, "queued:"+s)
}
func (o *recordingObserver) JobStarted(s string, _ sim.Time, _ sim.Duration) {
	o.events = append(o.events, "started:"+s)
}
func (o *recordingObserver) JobFinished(s string, _, _ sim.Time) {
	o.events = append(o.events, "finished:"+s)
}
func (o *recordingObserver) JobDropped(s string, _ sim.Time) {
	o.events = append(o.events, "dropped:"+s)
}
func (o *recordingObserver) FrameSent(l string, _ int, _, _ sim.Time, _ bool) {
	o.events = append(o.events, "frame:"+l)
}
func (o *recordingObserver) BatchFlushed(s string, _ int, _ sim.Duration, _ sim.Time) {
	o.events = append(o.events, "batch:"+s)
}

// The fan-out forwards every station, link and batch callback to both
// observers in order, and observe hands a resource the bare recorder or
// checker when only one is on, so the nil-observer fast path holds.
func TestObserverFanOut(t *testing.T) {
	a, b := &recordingObserver{}, &recordingObserver{}
	var o observer = fanOut{a, b}
	o.JobQueued("x", 0, 1)
	o.JobStarted("x", 0, 0)
	o.JobFinished("x", 0, 0)
	o.JobDropped("x", 0)
	o.FrameSent("w", 64, 0, 1, false)
	o.BatchFlushed("s", 2, 0, 0)
	want := []string{"queued:x", "started:x", "finished:x", "dropped:x", "frame:w", "batch:s"}
	if !reflect.DeepEqual(a.events, want) || !reflect.DeepEqual(b.events, want) {
		t.Fatalf("fan-out forwarded %v and %v, want %v to both", a.events, b.events, want)
	}

	rec := obs.NewRecorder(1, "run")
	chk := invariant.New("run")
	if observe(nil, nil) != nil {
		t.Fatal("no recorder and no checker should leave resources unobserved")
	}
	if got, ok := observe(rec, nil).(*obs.Recorder); !ok || got != rec {
		t.Fatalf("recorder alone should be observed bare, got %T", observe(rec, nil))
	}
	if got, ok := observe(nil, chk).(*invariant.Checker); !ok || got != chk {
		t.Fatalf("checker alone should be observed bare, got %T", observe(nil, chk))
	}
	if _, ok := observe(rec, chk).(fanOut); !ok {
		t.Fatalf("recorder and checker together should fan out, got %T", observe(rec, chk))
	}
}
