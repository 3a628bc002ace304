// Package fault is the deterministic fault-injection layer of the
// testbed: a virtual-time-scheduled plan of component degradations that
// the discrete-event engine replays bit-identically for a given seed.
//
// The paper's §5.3 strategies implicitly assume the SNIC datapath is
// always healthy, but BlueField-class hardware studies (Liu et al.,
// "Performance Characteristics of the BlueField-2 SmartNIC"; the DPA
// off-path characterizations) report engine stalls, saturation cliffs and
// thermal throttling in steady operation. This package supplies the
// machinery to ask what those events do to SLO and energy efficiency:
// accelerator crashes/stalls/degradation, link flaps and rate caps, SNIC
// or host core throttling, and power-sensor dropouts, each injected at a
// planned virtual time and cleared after a planned window.
//
// Components expose small capability interfaces (Engine, Link, Pool,
// Sensor) that the real models in internal/accel, internal/nic,
// internal/cpu and internal/power already satisfy; a Registry binds plan
// target names to components, and Plan.Arm schedules the begin/end
// transitions on the simulation engine.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Kind names a fault class.
type Kind int

const (
	// EngineCrash: the accelerator engine rejects submissions (typed
	// error) until the window ends and the driver reset runs.
	EngineCrash Kind = iota
	// EngineStall: the engine accepts work but retires nothing for the
	// window (pipeline wedge).
	EngineStall
	// EngineDegrade: the engine's service rate drops to Factor × nominal
	// for the window.
	EngineDegrade
	// LinkFlap: the link loses carrier; frames in the window are lost.
	LinkFlap
	// LinkRateCap: the link renegotiates to Factor × nominal rate.
	LinkRateCap
	// CoreThrottle: the CPU pool's frequency drops to Factor × base.
	CoreThrottle
	// SensorDropout: the power sensor records nothing for the window.
	SensorDropout
)

func (k Kind) String() string {
	switch k {
	case EngineCrash:
		return "engine-crash"
	case EngineStall:
		return "engine-stall"
	case EngineDegrade:
		return "engine-degrade"
	case LinkFlap:
		return "link-flap"
	case LinkRateCap:
		return "link-rate-cap"
	case CoreThrottle:
		return "core-throttle"
	case SensorDropout:
		return "sensor-dropout"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one planned fault: Kind hits Target at At and clears after For.
// Factor carries the degradation magnitude for the *Degrade/*Cap/Throttle
// kinds and is ignored by the binary kinds.
type Event struct {
	At     sim.Time
	For    sim.Duration
	Kind   Kind
	Target string
	Factor float64
}

// End returns the instant the fault clears.
func (e Event) End() sim.Time { return e.At.Add(e.For) }

func (e Event) String() string {
	s := fmt.Sprintf("%v on %q at %v for %v", e.Kind, e.Target, e.At, e.For)
	if e.Factor > 0 {
		s += fmt.Sprintf(" (factor %.2f)", e.Factor)
	}
	return s
}

// Plan is an ordered set of fault events. The zero value is a fault-free
// plan; experiments use it as the baseline.
type Plan struct {
	Events []Event
}

// Add appends an event and returns the plan for chaining.
func (p *Plan) Add(ev Event) *Plan {
	p.Events = append(p.Events, ev)
	return p
}

// Empty reports whether the plan injects anything.
func (p *Plan) Empty() bool { return len(p.Events) == 0 }

// Start returns the earliest fault onset (0 for an empty plan).
func (p *Plan) Start() sim.Time {
	if len(p.Events) == 0 {
		return 0
	}
	start := p.Events[0].At
	for _, ev := range p.Events[1:] {
		if ev.At < start {
			start = ev.At
		}
	}
	return start
}

// End returns the instant the last fault clears (0 for an empty plan).
// Experiments use it to split completions into fault-era and post-fault
// populations without running the plan first.
func (p *Plan) End() sim.Time {
	var end sim.Time
	for _, ev := range p.Events {
		if t := ev.End(); t > end {
			end = t
		}
	}
	return end
}

// ---- Component capability interfaces ----

// Engine is the accelerator-side fault surface (accel.ByteEngine and
// accel.PKAEngine satisfy it).
type Engine interface {
	Fail()
	Recover()
	Stall(until sim.Time)
	SetRateFactor(f float64)
}

// Link is the wire/link fault surface (nic.Wire and sim.Link satisfy it).
type Link interface {
	SetDown(down bool)
	SetRateFactor(f float64)
}

// Pool is the CPU fault surface (cpu.Pool satisfies it).
type Pool interface {
	SetThrottle(f float64)
}

// Sensor is the instrumentation fault surface (power.Sensor satisfies it).
type Sensor interface {
	DropUntil(t sim.Time)
}

// Registry binds plan target names to injectable components. Each name
// lives in the namespace of its kind: an engine and a link may share a
// name without colliding.
type Registry struct {
	engines map[string]Engine
	links   map[string]Link
	pools   map[string]Pool
	sensors map[string]Sensor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		engines: make(map[string]Engine),
		links:   make(map[string]Link),
		pools:   make(map[string]Pool),
		sensors: make(map[string]Sensor),
	}
}

// AddEngine registers an accelerator engine under name.
func (r *Registry) AddEngine(name string, e Engine) *Registry {
	r.engines[name] = e
	return r
}

// AddLink registers a link/wire under name.
func (r *Registry) AddLink(name string, l Link) *Registry {
	r.links[name] = l
	return r
}

// AddPool registers a CPU pool under name.
func (r *Registry) AddPool(name string, p Pool) *Registry {
	r.pools[name] = p
	return r
}

// AddSensor registers a power sensor under name.
func (r *Registry) AddSensor(name string, s Sensor) *Registry {
	r.sensors[name] = s
	return r
}

// Transition is one applied or cleared fault, for deterministic reports.
type Transition struct {
	At    sim.Time
	Event Event
	Begin bool // true at fault onset, false at clear
}

func (t Transition) String() string {
	verb := "clear"
	if t.Begin {
		verb = "begin"
	}
	return fmt.Sprintf("%v %s %v on %q", t.At, verb, t.Event.Kind, t.Event.Target)
}

// Log records the plan's transitions as they execute.
type Log struct {
	Transitions []Transition
}

// Arm schedules every event's begin and clear transitions on eng against
// the registry's components and returns the live log. Every event is resolved against the registry
// before anything is scheduled: an event naming an unregistered target
// (or an unknown kind, or a factor outside (0,1]) fails with a typed
// *PlanError and leaves eng untouched. A plan aimed at nothing is a
// configuration bug, and failing at injection time would be silent until
// the report looked wrong.
func (p *Plan) Arm(eng *sim.Engine, reg *Registry) (*Log, error) {
	begins := make([]func(), len(p.Events))
	clears := make([]func(), len(p.Events))
	for i, ev := range p.Events {
		var reason string
		if begins[i], clears[i], reason = reg.actions(ev); reason != "" {
			return nil, &PlanError{Index: i, Event: ev, Reason: reason}
		}
	}
	log := &Log{}
	for i, ev := range p.Events {
		begin, clear := begins[i], clears[i]
		eng.At(ev.At, func() {
			begin()
			log.Transitions = append(log.Transitions, Transition{At: eng.Now(), Event: ev, Begin: true})
		})
		eng.At(ev.End(), func() {
			clear()
			log.Transitions = append(log.Transitions, Transition{At: eng.Now(), Event: ev, Begin: false})
		})
	}
	return log, nil
}

// actions resolves an event to its begin/clear closures, or returns why
// it cannot: an unknown kind, a factor outside (0,1], or a target not
// registered under the kind's component type.
func (r *Registry) actions(ev Event) (begin, clear func(), reason string) {
	if needsFactor(ev.Kind) && (ev.Factor <= 0 || ev.Factor > 1) {
		return nil, nil, fmt.Sprintf("%v needs a factor in (0,1], got %v", ev.Kind, ev.Factor)
	}
	unregistered := func(component string) (func(), func(), string) {
		return nil, nil, fmt.Sprintf("%v targets unregistered %s %q", ev.Kind, component, ev.Target)
	}
	switch ev.Kind {
	case EngineCrash, EngineStall, EngineDegrade:
		e, ok := r.engines[ev.Target]
		switch {
		case !ok:
			return unregistered("engine")
		case ev.Kind == EngineCrash:
			return e.Fail, e.Recover, ""
		case ev.Kind == EngineStall:
			return func() { e.Stall(ev.End()) }, func() {}, ""
		}
		return func() { e.SetRateFactor(ev.Factor) }, func() { e.SetRateFactor(1) }, ""
	case LinkFlap, LinkRateCap:
		l, ok := r.links[ev.Target]
		switch {
		case !ok:
			return unregistered("link")
		case ev.Kind == LinkFlap:
			return func() { l.SetDown(true) }, func() { l.SetDown(false) }, ""
		}
		return func() { l.SetRateFactor(ev.Factor) }, func() { l.SetRateFactor(1) }, ""
	case CoreThrottle:
		pl, ok := r.pools[ev.Target]
		if !ok {
			return unregistered("pool")
		}
		return func() { pl.SetThrottle(ev.Factor) }, func() { pl.SetThrottle(1) }, ""
	case SensorDropout:
		s, ok := r.sensors[ev.Target]
		if !ok {
			return unregistered("sensor")
		}
		return func() { s.DropUntil(ev.End()) }, func() {}, ""
	}
	return nil, nil, fmt.Sprintf("unknown kind %v", ev.Kind)
}

// ---- Seeded plan generation ----

// RandomPlanConfig parameterizes NewRandomPlan. Targets absent from a
// category simply exclude that category's kinds from the draw.
type RandomPlanConfig struct {
	Seed uint64
	// Horizon bounds event onset times; windows may run past it.
	Horizon sim.Duration
	// Events is how many faults to draw.
	Events int
	// MaxWindow bounds each fault's duration.
	MaxWindow sim.Duration
	// MinFactor floors drawn degradation factors (degrade/cap/throttle
	// factors are drawn uniformly in [MinFactor, 1)).
	MinFactor float64

	Engines []string
	Links   []string
	Pools   []string
	Sensors []string
}

// NewRandomPlan draws a seeded fault plan: same config, same plan, byte
// for byte. Soak tests use it to stress the failover machinery with
// arbitrary-but-reproducible fault mixes. Drawn plans always pass
// Validate: windows of the same kind on the same target never overlap
// (onsets are redrawn a bounded number of times; an unplaceable event is
// skipped, so a saturated timeline may yield slightly fewer than
// cfg.Events faults).
func NewRandomPlan(cfg RandomPlanConfig) Plan {
	if cfg.Events <= 0 || cfg.Horizon <= 0 {
		panic("fault: random plan needs positive events and horizon")
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = cfg.Horizon / 10
	}
	if cfg.MinFactor <= 0 || cfg.MinFactor > 1 {
		cfg.MinFactor = 0.3
	}
	var kinds []Kind
	if len(cfg.Engines) > 0 {
		kinds = append(kinds, EngineCrash, EngineStall, EngineDegrade)
	}
	if len(cfg.Links) > 0 {
		kinds = append(kinds, LinkFlap, LinkRateCap)
	}
	if len(cfg.Pools) > 0 {
		kinds = append(kinds, CoreThrottle)
	}
	if len(cfg.Sensors) > 0 {
		kinds = append(kinds, SensorDropout)
	}
	if len(kinds) == 0 {
		panic("fault: random plan has no targets")
	}
	r := sim.NewRNG(cfg.Seed)
	var p Plan
	for i := 0; i < cfg.Events; i++ {
		k := kinds[r.Intn(len(kinds))]
		ev := Event{
			For:  1 + sim.Duration(r.Uint64n(uint64(cfg.MaxWindow))),
			Kind: k,
		}
		switch k {
		case EngineCrash, EngineStall, EngineDegrade:
			ev.Target = cfg.Engines[r.Intn(len(cfg.Engines))]
		case LinkFlap, LinkRateCap:
			ev.Target = cfg.Links[r.Intn(len(cfg.Links))]
		case CoreThrottle:
			ev.Target = cfg.Pools[r.Intn(len(cfg.Pools))]
		case SensorDropout:
			ev.Target = cfg.Sensors[r.Intn(len(cfg.Sensors))]
		}
		if needsFactor(k) {
			ev.Factor = cfg.MinFactor + (1-cfg.MinFactor)*r.Float64()
		}
		// Draw an onset that does not overlap an already-drawn window of
		// the same kind and target — Validate rejects such plans, and a
		// clear racing another window's hold would be meaningless anyway.
		// Deterministic redraw, bounded so a saturated timeline cannot
		// spin forever; on exhaustion the event is skipped.
		placed := false
		for try := 0; try < 32 && !placed; try++ {
			ev.At = sim.Time(r.Uint64n(uint64(cfg.Horizon)))
			placed = true
			for _, prev := range p.Events {
				if prev.Kind == ev.Kind && prev.Target == ev.Target &&
					prev.At < ev.End() && ev.At < prev.End() {
					placed = false
					break
				}
			}
		}
		if placed {
			p.Add(ev)
		}
	}
	// Sort by onset so plans read chronologically; Arm does not care, but
	// humans inspecting a report do.
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}
