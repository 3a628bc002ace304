package fault

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/sim"
)

// fake components record the calls the plan makes against them.
type fakeEngine struct {
	failed, recovered int
	stalledUntil      sim.Time
	rate              float64
}

func (f *fakeEngine) Fail()                   { f.failed++ }
func (f *fakeEngine) Recover()                { f.recovered++ }
func (f *fakeEngine) Stall(t sim.Time)        { f.stalledUntil = t }
func (f *fakeEngine) SetRateFactor(v float64) { f.rate = v }

type fakeLink struct {
	down bool
	rate float64
}

func (f *fakeLink) SetDown(d bool)          { f.down = d }
func (f *fakeLink) SetRateFactor(v float64) { f.rate = v }

type fakePool struct{ throttle float64 }

func (f *fakePool) SetThrottle(v float64) { f.throttle = v }

type fakeSensor struct{ dropUntil sim.Time }

func (f *fakeSensor) DropUntil(t sim.Time) { f.dropUntil = t }

// activeFaults counts the fault windows the log shows open.
func activeFaults(log *Log) int {
	n := 0
	for _, tr := range log.Transitions {
		if tr.Begin {
			n++
		} else {
			n--
		}
	}
	return n
}

func TestPlanArmAppliesAndClearsInVirtualTime(t *testing.T) {
	eng := sim.NewEngine()
	fe := &fakeEngine{}
	fl := &fakeLink{}
	fp := &fakePool{}
	fs := &fakeSensor{}
	reg := NewRegistry().
		AddEngine("rem", fe).AddLink("wire", fl).
		AddPool("staging", fp).AddSensor("bmc", fs)

	var p Plan
	p.Add(Event{At: 100, For: 50, Kind: EngineCrash, Target: "rem"})
	p.Add(Event{At: 200, For: 30, Kind: LinkFlap, Target: "wire"})
	p.Add(Event{At: 300, For: 40, Kind: CoreThrottle, Target: "staging", Factor: 0.5})
	p.Add(Event{At: 400, For: 60, Kind: SensorDropout, Target: "bmc"})
	p.Add(Event{At: 500, For: 25, Kind: EngineStall, Target: "rem"})
	p.Add(Event{At: 600, For: 20, Kind: EngineDegrade, Target: "rem", Factor: 0.7})
	p.Add(Event{At: 700, For: 10, Kind: LinkRateCap, Target: "wire", Factor: 0.25})

	log, err := p.Arm(eng, reg)
	if err != nil {
		t.Fatal(err)
	}
	if p.End() != 710 {
		t.Fatalf("Plan.End() = %v, want 710", p.End())
	}

	eng.RunUntil(120)
	if fe.failed != 1 || fe.recovered != 0 {
		t.Fatalf("at t=120: failed=%d recovered=%d, want 1/0", fe.failed, fe.recovered)
	}
	if n := activeFaults(log); n != 1 {
		t.Fatalf("at t=120: active = %d, want 1", n)
	}
	eng.RunUntil(210)
	if fe.recovered != 1 {
		t.Fatalf("engine crash did not clear at 150")
	}
	if !fl.down {
		t.Fatalf("link not down at t=210")
	}
	eng.RunUntil(320)
	if fl.down {
		t.Fatalf("link still down after flap window")
	}
	if fp.throttle != 0.5 {
		t.Fatalf("pool throttle = %v at t=320, want 0.5", fp.throttle)
	}
	eng.Run()
	if fp.throttle != 1 {
		t.Fatalf("pool throttle = %v at end, want restored to 1", fp.throttle)
	}
	if fs.dropUntil != 460 {
		t.Fatalf("sensor dropUntil = %v, want 460", fs.dropUntil)
	}
	if fe.stalledUntil != 525 {
		t.Fatalf("engine stalledUntil = %v, want 525", fe.stalledUntil)
	}
	if fe.rate != 1 {
		t.Fatalf("engine rate = %v at end, want restored to 1", fe.rate)
	}
	if fl.rate != 1 {
		t.Fatalf("link rate = %v at end, want restored to 1", fl.rate)
	}
	if n := activeFaults(log); n != 0 {
		t.Fatalf("active = %d after all windows, want 0", n)
	}
	if len(log.Transitions) != 14 {
		t.Fatalf("logged %d transitions, want 14 (7 begin + 7 clear)", len(log.Transitions))
	}
}

// A plan aimed at a component the registry does not hold fails with a
// typed error naming the event, before any of the plan is scheduled.
func TestPlanArmUnknownTargetFails(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry().AddEngine("rem", accel.REMEngine(eng))
	var p Plan
	p.Add(Event{At: 1, For: 1, Kind: EngineCrash, Target: "rem"})
	p.Add(Event{At: 5, For: 1, Kind: LinkFlap, Target: "nope"})
	log, err := p.Arm(eng, reg)
	var pe *PlanError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("arming a plan at an unregistered target: got %v, want a *PlanError for event 1", err)
	}
	if log != nil || eng.Pending() != 0 {
		t.Fatalf("a rejected plan left %d events scheduled", eng.Pending())
	}
}

// The plan must drive the real accelerator model end to end: reject while
// crashed, accept after recovery.
func TestPlanDrivesRealEngine(t *testing.T) {
	eng := sim.NewEngine()
	rem := accel.REMEngine(eng)
	reg := NewRegistry().AddEngine("rem", rem)
	var p Plan
	p.Add(Event{At: sim.Time(10 * sim.Microsecond), For: 20 * sim.Microsecond, Kind: EngineCrash, Target: "rem"})
	if _, err := p.Arm(eng, reg); err != nil {
		t.Fatal(err)
	}

	var errAt, okAfter error
	eng.At(sim.Time(15*sim.Microsecond), func() {
		errAt = rem.Submit(1500, nil)
	})
	eng.At(sim.Time(40*sim.Microsecond), func() {
		okAfter = rem.Submit(1500, nil)
	})
	eng.Run()
	if !errors.Is(errAt, accel.ErrEngineDown) {
		t.Fatalf("submit during crash window: err = %v, want ErrEngineDown", errAt)
	}
	if okAfter != nil {
		t.Fatalf("submit after recovery: err = %v, want nil", okAfter)
	}
}

func TestRandomPlanIsDeterministic(t *testing.T) {
	cfg := RandomPlanConfig{
		Seed:    42,
		Horizon: sim.Duration(10 * sim.Millisecond),
		Events:  32,
		Engines: []string{"rem", "deflate"},
		Links:   []string{"wire"},
		Pools:   []string{"staging", "host"},
		Sensors: []string{"bmc"},
	}
	a, b := NewRandomPlan(cfg), NewRandomPlan(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	cfg.Seed = 43
	c := NewRandomPlan(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatal("plan events not sorted by onset")
		}
	}
	for _, ev := range a.Events {
		switch ev.Kind {
		case EngineDegrade, LinkRateCap, CoreThrottle:
			if ev.Factor <= 0 || ev.Factor > 1 {
				t.Fatalf("%v: factor %v outside (0,1]", ev, ev.Factor)
			}
		}
		if ev.For <= 0 {
			t.Fatalf("%v: non-positive window", ev)
		}
	}
}
