package core

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The offload workload family: flow-granular offload through a bounded
// eSwitch flow table under churn. Packets whose flow holds a resident
// rule reflect in hardware at line rate (the fast path); everything
// else climbs into the SNIC cores' software slow path, where the OvS
// datapath serves the packet and — for flows past the offload
// threshold — programs a rule through the serialized insertion queue.
// The family compares offload policies (static per-function, static
// per-flow threshold, adaptive) on SLO attainment and drop rate over
// churny elephant/mice traffic, the control-plane scenario space the
// paper's ideal-forwarder eSwitch never exposes.

// OffloadPolicyKind names an offload threshold policy family.
type OffloadPolicyKind string

// The policy kinds.
const (
	// OffloadStaticFunction offloads every flow from its first packet —
	// the static per-function advisor at flow granularity (K = 1).
	OffloadStaticFunction OffloadPolicyKind = "static-func"
	// OffloadStaticFlow offloads a flow after a fixed K slow-path
	// packets.
	OffloadStaticFlow OffloadPolicyKind = "static-flow"
	// OffloadAdaptive adapts K online from the table's own counters.
	OffloadAdaptive OffloadPolicyKind = "adaptive"
)

// OffloadPolicy is the pure-data policy spec (kept serializable for
// memo keys; build() turns it into the live flow.Policy).
type OffloadPolicy struct {
	Kind OffloadPolicyKind
	// Threshold is the fixed K for OffloadStaticFlow.
	Threshold int
	// Adaptive tunes the controller for OffloadAdaptive.
	Adaptive flow.AdaptiveConfig
}

// build instantiates the live policy. Validate must have accepted the
// spec first; an unknown kind panics.
func (p OffloadPolicy) build() flow.Policy {
	switch p.Kind {
	case OffloadStaticFunction:
		return flow.StaticFunction{}
	case OffloadStaticFlow:
		return flow.StaticThreshold{K: p.Threshold}
	case OffloadAdaptive:
		return flow.NewAdaptive(p.Adaptive)
	default:
		panic(fmt.Sprintf("core: unknown offload policy kind %q", p.Kind))
	}
}

// Key serializes the policy's identity and parameters for labels and
// memo keys.
func (p OffloadPolicy) Key() string { return p.build().Key() }

// validate checks the policy spec with workload-style typed errors.
func (p *OffloadPolicy) validate() error {
	fail := func(field, reason string) error {
		return &WorkloadError{Kind: WorkloadOffload, Field: field, Reason: reason}
	}
	switch p.Kind {
	case OffloadStaticFunction:
	case OffloadStaticFlow:
		if p.Threshold < 1 {
			return fail("Policy.Threshold", "must be at least 1 for static-flow")
		}
	case OffloadAdaptive:
		if err := p.Adaptive.Validate(); err != nil {
			return fail("Policy.Adaptive", err.Error())
		}
	default:
		return fail("Policy.Kind", fmt.Sprintf("unknown kind %q", p.Kind))
	}
	return nil
}

// OffloadSpec is the full input of one offload run.
type OffloadSpec struct {
	// Name labels the scenario in reports and run labels.
	Name string
	// Trace is the offered-load series the packets follow.
	Trace *trace.HyperscalerTrace
	// Mix decomposes the trace into flows.
	Mix trace.FlowMix
	// Table sizes the eSwitch flow table and its slow path.
	Table flow.TableConfig
	// Policy decides the offload threshold.
	Policy OffloadPolicy
	// ControlInterval is the controller's observation period.
	ControlInterval sim.Duration
	// SLO is the per-packet latency objective attainment is scored
	// against.
	SLO sim.Duration
	// Seed perturbs every derived random stream.
	Seed uint64
	// PktSize is the fixed L2 frame size.
	PktSize int
	// SlowBaseCycles/SlowPerByteCycles cost one slow-path packet on a
	// SNIC core (the OvS kernel datapath walk).
	SlowBaseCycles    float64
	SlowPerByteCycles float64
	// RuleDecisionCycles is the extra first-packet-of-flow cost: the
	// upcall that classifies the flow and decides on a rule.
	RuleDecisionCycles float64
	// SlowSigma is the slow path's log-normal jitter.
	SlowSigma float64
	// QueueCap bounds the slow path's service queue; overflow drops.
	QueueCap int
}

// ChurnTrace is the default offload scenario load: a bursty series
// whose bursts exceed the slow path's software capacity, so SLO and
// drop behavior hinge on how much mass the flow table keeps on the
// fast path when the burst lands.
func ChurnTrace() *trace.HyperscalerTrace {
	const baseGbps, burstGbps = 6, 26
	return BurstyTrace(baseGbps, burstGbps, 40, 5, 2*sim.Millisecond)
}

// DefaultOffloadSpec returns the calibrated churn scenario used by
// snicbench -exp offload. The mix narrows the default decomposition so
// flows live long enough within the trace for threshold filtering to
// matter, and forces slot churn throughout the run so the controller
// keeps seeing fresh flows.
func DefaultOffloadSpec() OffloadSpec {
	mix := trace.DefaultFlowMix()
	mix.Concurrency = 384
	mix.MiceMaxPkts = 16
	mix.ChurnPerPacket = 0.03
	// The table can hold the elephant working set once idle rules age
	// out, so the contested resource is the serialized insert path —
	// exactly the fight a low threshold loses under churn.
	table := flow.DefaultTableConfig()
	table.IdleTimeout = 3 * sim.Millisecond
	table.ThrashWindow = 500 * sim.Microsecond
	return OffloadSpec{
		Name:               "churn",
		Trace:              ChurnTrace(),
		Mix:                mix,
		Table:              table,
		Policy:             OffloadPolicy{Kind: OffloadAdaptive, Adaptive: flow.DefaultAdaptiveConfig()},
		ControlInterval:    500 * sim.Microsecond,
		SLO:                50 * sim.Microsecond,
		Seed:               42,
		PktSize:            nic.MTU,
		SlowBaseCycles:     6000,
		SlowPerByteCycles:  2,
		RuleDecisionCycles: 12000,
		SlowSigma:          0.2,
		QueueCap:           512,
	}
}

// DefaultOffloadPolicies returns the standard comparison set: static
// per-function, static per-flow threshold, and adaptive.
func DefaultOffloadPolicies() []OffloadPolicy {
	return []OffloadPolicy{
		{Kind: OffloadStaticFunction},
		{Kind: OffloadStaticFlow, Threshold: 8},
		{Kind: OffloadAdaptive, Adaptive: flow.DefaultAdaptiveConfig()},
	}
}

// Validate checks the spec, returning a typed *WorkloadError on the
// first problem.
func (s *OffloadSpec) Validate() error {
	fail := func(field, reason string) error {
		return &WorkloadError{Kind: WorkloadOffload, Field: field, Reason: reason}
	}
	if err := validTrace(WorkloadOffload, s.Trace); err != nil {
		return err
	}
	if err := s.Mix.Validate(); err != nil {
		return fail("Mix", err.Error())
	}
	if err := s.Table.Validate(); err != nil {
		return fail("Table", err.Error())
	}
	if err := s.Policy.validate(); err != nil {
		return err
	}
	switch {
	case s.ControlInterval <= 0:
		return fail("ControlInterval", "must be positive")
	case s.SLO <= 0:
		return fail("SLO", "must be positive")
	case s.PktSize <= 0:
		return fail("PktSize", "must be positive")
	case s.SlowBaseCycles < 0 || s.SlowPerByteCycles < 0 || s.RuleDecisionCycles < 0:
		return fail("SlowBaseCycles", "cycle costs must not be negative")
	case s.SlowSigma < 0:
		return fail("SlowSigma", "must not be negative")
	case s.QueueCap <= 0:
		return fail("QueueCap", "must be positive")
	}
	return nil
}

// OffloadResult is one offload run's scorecard.
type OffloadResult struct {
	Name   string
	Policy string
	SLO    sim.Duration

	Sent, Completed, Dropped uint64
	FastPath, SlowPath       uint64

	// SLOAttainment is the fraction of sent packets completing within
	// SLO; DropRate the fraction shed at the slow path's queue.
	SLOAttainment float64
	DropRate      float64
	P99           sim.Duration
	AvgTputGbps   float64
	AvgPowerW     float64

	// Flow-plane accounting.
	FlowsStarted, FlowsChurned  uint64
	Inserts, Evictions          uint64
	InsertRejects, InsertAborts uint64
	Thrash                      uint64
	OccupancyPeak               int
	// ThresholdMin/Max/Final trace the policy's K over the run.
	ThresholdMin, ThresholdMax, ThresholdFinal int
}

// FastPathShare is the fraction of packets the hardware handled.
func (o *OffloadResult) FastPathShare() float64 {
	if o.Sent == 0 {
		return 0
	}
	return float64(o.FastPath) / float64(o.Sent)
}

// RunOffload measures one offload spec, memoized like every family.
func (r *Runner) RunOffload(spec OffloadSpec) OffloadResult {
	res, err := r.Execute(Workload{Kind: WorkloadOffload, Offload: &spec})
	if err != nil {
		panic(err)
	}
	return *res.Offload
}

// OffloadExperiment measures one scenario under each policy, in
// submission order (deterministic at any parallelism).
func (r *Runner) OffloadExperiment(spec OffloadSpec, policies []OffloadPolicy) []OffloadResult {
	out := make([]OffloadResult, len(policies))
	prog := r.newProgress(len(policies))
	r.forEachN(len(policies), func(i int) {
		s := spec
		s.Policy = policies[i]
		out[i] = r.RunOffload(s)
		prog.step("offload " + policies[i].Key())
	})
	return out
}

// runOffload executes one offload run on a fresh testbed: a replay whose
// packets carry flows and whose eSwitch steers each to the hardware fast
// path or the SNIC cores' software slow path.
func (r *Runner) runOffload(spec *OffloadSpec) OffloadResult {
	label := fmt.Sprintf("offload %s | %s | seed %d", spec.Name, spec.Policy.Key(), spec.Seed)
	seed := r.runSeed(spec.Seed)
	tbc := r.TBConfig
	tbc.Seed ^= seed
	// The slow path lives on the SNIC cores: on-path mode, Arm cores
	// polling, no traffic crossing into host memory.
	ctx := r.newRunctx(tbc, SNICCPU, "", seed, offloadKey(spec, r.TBConfig), label)
	tb, eng := ctx.tb, ctx.tb.Eng
	tb.setPower(false, true, false, true)
	ctx.warmupN = 1 // replay semantics: the first completion opens the meter
	ctx.sizes = trace.Fixed(spec.PktSize)
	ctx.pool.SetQueueCapacity(spec.QueueCap)
	mix := spec.Mix
	mix.Seed ^= seed * 0x51ed2701
	ctx.offload, ctx.asn = spec, mix.NewAssigner()
	ctx.tbl = flow.NewTable(eng, spec.Table)
	ctx.ctl = flow.NewController(ctx.tbl, spec.Policy.build())
	// flow/ gauges must register before instrumentTestbed starts the
	// sampler: gauges added after StartSampler are never polled.
	if ctx.rec != nil {
		tbl := ctx.tbl
		ctx.rec.Gauge("flow/table/occupancy", "rules", 0, func() float64 { return float64(tbl.Occupancy()) })
		ctx.rec.Gauge("flow/table/pending", "inserts", 0, func() float64 { return float64(tbl.PendingInserts()) })
	}
	instrumentTestbed(tb, ctx.rec, ctx.chk)

	tb.Sw.Program(nic.FlowSteer(eng, ctx.tbl, nic.ToWire, nic.ToSNICCPU))
	tb.Sw.ConnectSink(nic.ToWire, (*fastSink)(ctx))
	tb.Sw.ConnectSink(nic.ToSNICCPU, (*slowSink)(ctx))
	ctx.ingress = tb.Sw.Ingress
	eng.Ticker(spec.ControlInterval, func() { ctx.ctl.Tick(eng.Now()) })
	ctx.replay(spec.Trace.RatesGbps, spec.Trace.Interval)
	r.finish(ctx)

	c := ctx.tbl.Counters()
	res := OffloadResult{
		Name:          spec.Name,
		Policy:        spec.Policy.Key(),
		SLO:           spec.SLO,
		Sent:          uint64(ctx.sent),
		Completed:     uint64(ctx.done),
		Dropped:       ctx.pool.Dropped(),
		FastPath:      ctx.fast,
		SlowPath:      ctx.slow,
		P99:           ctx.hist.P99(),
		FlowsStarted:  ctx.asn.FlowsStarted(),
		FlowsChurned:  ctx.asn.FlowsChurned(),
		Inserts:       c.Inserts,
		Evictions:     c.Evictions,
		InsertRejects: c.InsertRejects,
		InsertAborts:  c.InsertAborts,
		Thrash:        c.Thrash,
		OccupancyPeak: ctx.tbl.OccupancyPeak(),
	}
	res.ThresholdMin, res.ThresholdMax, res.ThresholdFinal = ctx.ctl.ThresholdRange()
	if ctx.sent > 0 {
		res.SLOAttainment = float64(ctx.hist.CountAtOrBelow(spec.SLO)) / float64(ctx.sent)
		res.DropRate = float64(res.Dropped) / float64(ctx.sent)
	}
	if ctx.meter != nil {
		ctx.meter.Close(ctx.lastSend)
		res.AvgTputGbps = ctx.meter.Gbps()
	}
	res.AvgPowerW = float64(tb.Power.Server.Power())
	return res
}

// fastSink is the hardware fast path: the resident rule reflects the
// packet straight back out the port — no CPU, no queueing, only the
// return wire.
type fastSink runctx

// HandleEvent reflects one packet.
//
//snicvet:hotpath
func (s *fastSink) HandleEvent(arg any) {
	ctx := (*runctx)(s)
	p := arg.(*nic.Packet)
	ctx.fast++
	//snicvet:ignore hotpath -- checked runs only (lazy ledgers, violation reports); a nil checker returns at once
	ctx.chk.FlowFast(p.Seq, ctx.tb.Eng.Now())
	ctx.noteTable()
	r := ctx.receive(p)
	r.respond(r.size)
}

// slowSink is the software slow path: an SNIC core walks the OvS
// datapath (plus the first-packet rule-decision upcall), then the
// response returns over the wire. A full service queue drops.
type slowSink runctx

// HandleEvent queues one packet for a slow-path core.
//
//snicvet:hotpath
func (s *slowSink) HandleEvent(arg any) {
	ctx := (*runctx)(s)
	p := arg.(*nic.Packet)
	ctx.slow++
	//snicvet:ignore hotpath -- checked runs only (lazy ledgers, violation reports); a nil checker returns at once
	ctx.chk.FlowSlow(p.Seq, ctx.tb.Eng.Now())
	n := ctx.ctl.OnMiss(p.Flow)
	ctx.noteTable()
	r := ctx.receive(p)
	spec, off := ctx.tb.SNICSpec, ctx.offload
	cycles := off.SlowBaseCycles + off.SlowPerByteCycles*float64(r.size)
	if n == 1 {
		// First packet of the flow: classify it and decide on a rule.
		cycles += off.RuleDecisionCycles
	}
	r.exec(ctx.pool, hopSlowPath, ctx.jit.LogNormalDur(sim.Cycles(cycles/spec.IPC, spec.BaseHz), off.SlowSigma))
}

// noteTable validates the table's bounds at the current instant.
//
//snicvet:hotpath
func (ctx *runctx) noteTable() {
	//snicvet:ignore hotpath -- checked runs only (lazy ledgers, violation reports); a nil checker returns at once
	ctx.chk.FlowTableOccupancy(ctx.tbl.Occupancy(), ctx.tbl.Capacity(),
		ctx.tbl.PendingInserts(), ctx.offload.Table.InsertQueueCap, ctx.tb.Eng.Now())
}

// flowCounters stamps the offload run's control-plane counters.
func (ctx *runctx) flowCounters(sc *obs.Scope) {
	c := ctx.tbl.Counters()
	sc.Counter("fast-path", "pkts").Set(float64(ctx.fast))
	sc.Counter("slow-path", "pkts").Set(float64(ctx.slow))
	sc.Counter("inserts", "rules").Set(float64(c.Inserts))
	sc.Counter("evictions", "rules").Set(float64(c.Evictions))
	sc.Counter("insert-rejects", "rules").Set(float64(c.InsertRejects))
	sc.Counter("insert-aborts", "rules").Set(float64(c.InsertAborts))
	sc.Counter("thrash", "rules").Set(float64(c.Thrash))
	sc.Counter("flows-started", "flows").Set(float64(ctx.asn.FlowsStarted()))
	sc.Counter("flows-churned", "flows").Set(float64(ctx.asn.FlowsChurned()))
}
