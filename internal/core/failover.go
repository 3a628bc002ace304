package core

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// FailoverPolicy governs how the testbed reacts when the SNIC datapath
// degrades: each request carries a virtual-time timeout guard, lost or
// stuck requests retry with exponential backoff up to a bounded count,
// and accelerator-bound work re-routes to the host CPU when the engine
// is unhealthy or its backlog crosses a watermark. This is the recovery
// side of the fault-injection layer (see internal/fault): §5.3's load
// balancer assumes a healthy datapath; the policy extends it to survive
// the engine stalls and link flaps BlueField-class hardware exhibits.
type FailoverPolicy struct {
	// Timeout is the per-request guard: a request with no response after
	// this long is presumed lost and becomes eligible for retry.
	Timeout sim.Duration
	// MaxRetries bounds re-sends per request; past it the request drops.
	MaxRetries int
	// BackoffBase is the wait before the first retry; each further retry
	// multiplies it by BackoffMult.
	BackoffBase sim.Duration
	BackoffMult float64
	// QueueWatermark is the accelerator backlog (staged + queued tasks)
	// above which the router prefers the host even while the engine is
	// nominally healthy — the SLO-aware spill of the §5.3 balancer.
	QueueWatermark int
}

// DefaultFailoverPolicy returns a policy tuned to the trace replays:
// the timeout clears normal p99 by an order of magnitude, and the retry
// schedule spans a short link flap.
func DefaultFailoverPolicy() FailoverPolicy {
	return FailoverPolicy{
		Timeout:        300 * sim.Microsecond,
		MaxRetries:     4,
		BackoffBase:    100 * sim.Microsecond,
		BackoffMult:    2,
		QueueWatermark: 96,
	}
}

// Validate rejects a policy the replay cannot run with a typed
// *ParamError: a non-positive timeout would arm the retry guard at or
// before now, a negative retry count, backoff or watermark or a
// non-finite backoff multiplier would wedge or silently disable
// recovery, and a retry schedule that overflows sim.Duration would wrap
// the run's horizon.
func (p FailoverPolicy) Validate() error {
	fail := func(param, reason string) error {
		return &ParamError{Op: "failover policy", Param: param, Reason: reason}
	}
	switch {
	case p.Timeout <= 0:
		return fail("Timeout", "must be positive")
	case p.MaxRetries < 0:
		return fail("MaxRetries", "must not be negative")
	case p.BackoffBase < 0:
		return fail("BackoffBase", "must not be negative")
	case !finite(p.BackoffMult):
		return fail("BackoffMult", "must be finite")
	case p.QueueWatermark < 0:
		return fail("QueueWatermark", "must not be negative")
	}
	if _, ok := p.schedule(); !ok {
		return fail("MaxRetries", "makes the backoff schedule overflow sim.Duration")
	}
	return nil
}

// Backoff returns the wait before retry number attempt (1-based).
func (p FailoverPolicy) Backoff(attempt int) sim.Duration {
	d := float64(p.BackoffBase)
	mult := p.BackoffMult
	if mult < 1 {
		mult = 1
	}
	for i := 1; i < attempt; i++ {
		d *= mult
	}
	return sim.Duration(d)
}

// MaxDelay bounds the time between a request's first send and the moment
// the policy gives up on it: MaxRetries+1 timeout windows plus every
// backoff wait. Experiments use it to bound recovery time and to size
// the post-trace drain.
func (p FailoverPolicy) MaxDelay() sim.Duration {
	d, _ := p.schedule()
	return d
}

// schedule sums MaxDelay backoff by backoff, each computed as Backoff
// computes it, and reports false as soon as a backoff or the sum no
// longer fits in sim.Duration.
func (p FailoverPolicy) schedule() (sim.Duration, bool) {
	const limit = sim.Duration(math.MaxInt64)
	mult := p.BackoffMult
	if mult < 1 {
		mult = 1
	}
	d, b := p.Timeout, float64(p.BackoffBase)
	for k := 1; k <= p.MaxRetries; k++ {
		// float64(limit) rounds up to 2^63, the first value past it.
		if b >= float64(limit) || sim.Duration(b) > limit-d-p.Timeout {
			return d, false
		}
		d += sim.Duration(b) + p.Timeout
		b *= mult
	}
	return d, true
}

// HealthRouter extends the §5.3 LoadBalancer into a health-aware router:
// besides the balancer's backlog spill it consults the engine's health,
// so a crashed or stalled accelerator sheds all new work to the host
// immediately instead of queueing into a dead pipeline.
type HealthRouter struct {
	LB     LoadBalancer
	Policy FailoverPolicy
}

// NewHealthRouter combines a balancer and a failover policy.
func NewHealthRouter(lb LoadBalancer, pol FailoverPolicy) *HealthRouter {
	return &HealthRouter{LB: lb, Policy: pol}
}

// Route picks a destination from live accelerator state. Anything but a
// healthy engine goes to the host; so does a backlog above the policy
// watermark (falling back to the balancer's spill threshold when unset).
func (hr *HealthRouter) Route(h accel.Health, backlog int) nic.Destination {
	if h != accel.Healthy {
		return nic.ToHostCPU
	}
	limit := hr.Policy.QueueWatermark
	if limit <= 0 {
		limit = hr.LB.SpillQueueThreshold
	}
	if backlog > limit {
		return nic.ToHostCPU
	}
	return nic.ToAccelerator
}

// FaultScenario is a named fault plan replayed against the trace.
type FaultScenario struct {
	Name string
	Desc string
	Plan fault.Plan
}

// DefaultFaultScenarios returns the experiment family's three scenarios,
// with windows placed relative to the trace span: an accelerator crash
// that exercises host failover, a link flap that exercises timeout/retry
// recovery, and an SNIC staging-core throttle that exercises SLO-aware
// re-routing via the queue watermark.
func DefaultFaultScenarios(span sim.Duration) []FaultScenario {
	q := span / 4
	var crash, flap, throttle fault.Plan
	crash.Add(fault.Event{At: sim.Time(q), For: q, Kind: fault.EngineCrash, Target: "rem"})
	flap.Add(fault.Event{At: sim.Time(span / 3), For: 1500 * sim.Microsecond, Kind: fault.LinkFlap, Target: "wire"})
	// 1%: the staging cores are effectively wedged (firmware-level stall),
	// not merely running hot — a milder cap is absorbed invisibly at trace
	// rates because staging per-packet cost is only a few hundred cycles.
	throttle.Add(fault.Event{At: sim.Time(q), For: q, Kind: fault.CoreThrottle, Target: "staging", Factor: 0.01})
	return []FaultScenario{
		{Name: "accel-crash", Desc: "REM engine down for a quarter of the trace; router fails over to the host", Plan: crash},
		{Name: "link-flap", Desc: "wire loses carrier for 1.5 ms; timeouts and backoff retries rescue in-flight requests", Plan: flap},
		{Name: "snic-throttle", Desc: "staging cores throttled to 1% for a quarter of the trace; watermark re-routes to the host", Plan: throttle},
	}
}

// FaultResult reports one scenario replay. All fields are comparable, so
// two runs of the same seed can be checked for bit-identity with ==.
type FaultResult struct {
	Scenario string

	Total     uint64
	Completed uint64
	// Dropped counts requests abandoned after exhausting retries.
	Dropped uint64
	// Retries counts re-sends; Rescued counts requests that completed
	// only after at least one retry.
	Retries uint64
	Rescued uint64
	// FailedOver counts staged tasks rejected by a crashed engine and
	// re-served on the host instead of being lost.
	FailedOver uint64

	HostShare   float64
	AvgTputGbps float64
	// MinDeliveredFrac is the worst per-interval delivered fraction —
	// the depth of the throughput dip the fault carved out.
	MinDeliveredFrac float64

	// P99 splits: requests first sent before, during and after the fault
	// window. P99Post recovering to the fault-free baseline is the
	// experiment's headline invariant.
	P99      sim.Duration
	P99Pre   sim.Duration
	P99Fault sim.Duration
	P99Post  sim.Duration
	// RecoveryTime is how long past the fault window the last fault-era
	// request needed to complete (0 when the backlog drained in-window).
	RecoveryTime sim.Duration

	AvgPowerW float64
	// Transitions is the number of fault begin/clear events applied.
	Transitions    int
	WireFramesLost uint64
	EngineRejected uint64

	// BMCMissedSamples / YoctoMissedSamples count sensor ticks that fell
	// inside injected dropout windows (fault.SensorDropout). The report
	// surfaces them so a power average over a gapped trace is never
	// mistaken for a clean measurement.
	BMCMissedSamples   uint64
	YoctoMissedSamples uint64
}

func (f FaultResult) String() string {
	return fmt.Sprintf("%s: %.2f Gb/s (dip %.0f%%), p99 pre/fault/post %v/%v/%v, recovery %v, %d retries, %d rescued, %d dropped",
		f.Scenario, f.AvgTputGbps, f.MinDeliveredFrac*100, f.P99Pre, f.P99Fault, f.P99Post,
		f.RecoveryTime, f.Retries, f.Rescued, f.Dropped)
}

// faultHorizon is a faulted replay's run horizon: the trace span or the
// plan's last fault window, whichever ends later, plus a drain long
// enough for every retry chain to resolve.
func faultHorizon(plan *fault.Plan, pol FailoverPolicy, tr *trace.HyperscalerTrace) sim.Time {
	horizon := sim.Time(tr.Duration())
	if end := plan.End(); end > horizon {
		horizon = end
	}
	return horizon.Add(100*sim.Millisecond + pol.MaxDelay())
}

// RunFaulted replays a rate trace of MTU REM packets while the
// scenario's fault plan runs, with the health router steering between
// the SNIC accelerator and the host CPU and the failover policy's
// timeout/retry machinery recovering lost requests. A scenario with an
// empty plan is the fault-free baseline. It panics on any error
// Execute returns.
func (r *Runner) RunFaulted(scn FaultScenario, hr *HealthRouter, tr *trace.HyperscalerTrace, hostCores int, seed uint64) FaultResult {
	res, err := r.Execute(Workload{Kind: WorkloadFaulted, Scenario: &scn, Router: hr,
		Trace: tr, HostCores: hostCores, Seed: seed})
	if err != nil {
		panic(err)
	}
	return *res.Fault
}

// runFaulted replays tr on the routed request path (routed.go) while
// scn's plan runs. Execute has validated the router, the policy and the
// plan; a plan aimed at a component the testbed does not have fails
// here with a typed *fault.PlanError before anything runs.
func (r *Runner) runFaulted(scn FaultScenario, hr *HealthRouter, tr *trace.HyperscalerTrace, hostCores int, seed uint64) (FaultResult, error) {
	pol := hr.Policy
	key := fmt.Sprintf("fault|%s|tb:%+v|cores:%d|pol:%+v|lb:%+v|tr:%s|seed:%d",
		scn.Name, r.TBConfig, hostCores, pol, hr.LB, traceFingerprint(tr), seed)
	label := fmt.Sprintf("fault %s | cores %d | seed %d", scn.Name, hostCores, seed)
	ctx := r.newRoutedCtx(hr, hostCores, seed, key, label)
	tb := ctx.tb

	// Every injectable component registers under a canonical name; plans
	// reference these names (see DefaultFaultScenarios).
	reg := fault.NewRegistry().
		AddEngine("rem", tb.REM).
		AddEngine("deflate", tb.Deflate).
		AddEngine("pka", tb.PKA).
		AddLink("wire", tb.Wire).
		AddPool("host", tb.HostPool).
		AddPool("snic", tb.SNICPool).
		AddPool("staging", tb.StagingPool).
		AddSensor("bmc", tb.BMC).
		AddSensor("yoctowatt", tb.YoctoWatt)
	flog, err := scn.Plan.Arm(tb.Eng, reg, nil)
	if err != nil {
		return FaultResult{}, err
	}
	n := len(tr.RatesGbps)
	fo := &failover{ctx: ctx, pol: pol, faulted: !scn.Plan.Empty(),
		faultStart: scn.Plan.Start(), faultEnd: scn.Plan.End(), interval: tr.Interval,
		sentBytes: make([]float64, n), doneBytes: make([]float64, n),
		pre: stats.NewHistogram(), during: stats.NewHistogram(), post: stats.NewHistogram()}
	// Requests sent while the policy may still be repairing fault-era
	// damage (draining stalled queues, finishing retry chains) belong to
	// the fault population; the post population starts once the policy's
	// own worst-case schedule has provably run out.
	fo.settleEnd = fo.faultEnd.Add(pol.MaxDelay())
	ctx.fo = fo

	// Failover-specific gauges ride alongside the standard testbed set;
	// both must be registered before instrumentTestbed starts the sampler.
	ctx.rec.Gauge("failover/engine-healthy", "bool", 0, func() float64 {
		if tb.REM.Health() == accel.Healthy {
			return 1
		}
		return 0
	})
	ctx.rec.Gauge("failover/inflight", "reqs", 0, func() float64 {
		return float64(uint64(ctx.sent-ctx.done) - ctx.dropped)
	})
	ctx.rec.Gauge("failover/backlog", "tasks", 0, func() float64 { return float64(tb.backlog(EngineREM)) })
	// Sensors always run during fault replays: a SensorDropout plan needs
	// a live trace to carve its gap into, and the report surfaces how
	// many samples the gap swallowed.
	r.runRouted(ctx, tr, faultHorizon(&scn.Plan, pol, tr), true, label)
	r.finish(ctx)

	res := FaultResult{
		Scenario:           scn.Name,
		Total:              uint64(ctx.sent),
		Completed:          uint64(ctx.done),
		Dropped:            ctx.dropped,
		Retries:            fo.retries,
		Rescued:            fo.rescued,
		FailedOver:         ctx.failedOver,
		Transitions:        len(flog.Transitions),
		WireFramesLost:     tb.Wire.Lost(),
		EngineRejected:     tb.REM.Rejected(),
		BMCMissedSamples:   tb.BMC.MissedSamples(),
		YoctoMissedSamples: tb.YoctoWatt.MissedSamples(),
	}
	if served := ctx.hostServed + ctx.snicServed; served > 0 {
		res.HostShare = float64(ctx.hostServed) / float64(served)
	}
	tb.SetHostTrafficShare(res.HostShare)
	tb.SetEngineUtil(tb.REM.Utilization())

	var doneBits float64
	res.MinDeliveredFrac = 1
	for i, sent := range fo.sentBytes {
		doneBits += fo.doneBytes[i] * 8
		// Interval 0 has no inflow from a predecessor, so its delivered
		// fraction is structurally short by one latency's worth of mass;
		// skip it rather than report a phantom dip. Near-idle intervals
		// (a handful of packets, as in the hyperscaler trace's valleys)
		// are skipped too: with so few samples the fraction is shot noise,
		// not a throughput dip.
		if i > 0 && sent >= 16*nicMTU {
			if frac := fo.doneBytes[i] / sent; frac < res.MinDeliveredFrac {
				res.MinDeliveredFrac = frac
			}
		}
	}
	res.AvgTputGbps = doneBits / tr.Duration().Seconds() / 1e9
	res.P99 = ctx.hist.P99()
	res.P99Pre = fo.pre.P99()
	res.P99Fault = fo.during.P99()
	res.P99Post = fo.post.P99()
	if fo.lastFaultEraDone > fo.faultEnd {
		res.RecoveryTime = fo.lastFaultEraDone.Sub(fo.faultEnd)
	}
	res.AvgPowerW = float64(tb.Power.Server.Power())
	return res, nil
}

// failover is a failover replay's retry machinery and its fault-era
// bookkeeping. Each request's retry state is its flight in the routed
// run's table (routed.go).
type failover struct {
	ctx *runctx
	pol FailoverPolicy
	// faulted is false on the fault-free baseline, whose completions all
	// land in post.
	faulted                         bool
	faultStart, faultEnd, settleEnd sim.Time
	lastFaultEraDone                sim.Time
	// sentBytes and doneBytes bucket payload per trace interval by first
	// send and by completion.
	interval             sim.Duration
	sentBytes, doneBytes []float64
	pre, during, post    *stats.Histogram
	retries, rescued     uint64
}

// intervalOf returns the trace interval t falls in.
//
//snicvet:hotpath
func (fo *failover) intervalOf(t sim.Time) int {
	return min(int(t/sim.Time(fo.interval)), len(fo.sentBytes)-1)
}

// sent buckets the payload of request f, which the client just put on
// the wire, and guards it with its first timeout.
//
//snicvet:hotpath
func (fo *failover) sent(f *flight) {
	fo.sentBytes[fo.intervalOf(f.sent)] += nicMTU
	fo.arm(f)
}

// arm counts a send of f's request and guards it with a timeout.
//
//snicvet:hotpath
func (fo *failover) arm(f *flight) {
	f.attempts++
	f.guard = fo.ctx.tb.Eng.AfterCall(fo.pol.Timeout, (*retryTimer)(fo), f)
}

// complete accounts request f's delivered response, lat after its
// first send: its timeout guard is disarmed, and the latency and bytes
// land in the fault era the request was first sent in.
//
//snicvet:hotpath
func (fo *failover) complete(f *flight, lat sim.Duration) {
	now := fo.ctx.tb.Eng.Now()
	//snicvet:ignore hotpath -- a sweep remakes the cancelled set only once it outgrows the pending events
	fo.ctx.tb.Eng.Cancel(f.guard)
	h := fo.post
	switch {
	case fo.faulted && f.sent < fo.faultStart:
		h = fo.pre
	case fo.faulted && f.sent < fo.settleEnd:
		h = fo.during
		if f.sent < fo.faultEnd && now > fo.lastFaultEraDone {
			fo.lastFaultEraDone = now
		}
	}
	//snicvet:ignore hotpath -- allocates only to format its panic on a negative latency
	h.Record(lat)
	// Delivered bytes bucket by completion time, so a fault that stalls
	// the datapath shows as a dip in the intervals it actually starved
	// (retried requests land their bytes late, where they belong).
	fo.doneBytes[fo.intervalOf(now)] += nicMTU
	if f.attempts > 1 {
		fo.rescued++
	}
}

// retryTimer is a request's one pending timer: the timeout guard of
// its latest send, or the backoff wait after that guard fired. A timer
// of a request that already resolved does nothing.
type retryTimer failover

// HandleEvent ends the flight's backoff with a resend, or acts on its
// timeout: past the retry budget the request is abandoned, otherwise it
// waits out its backoff.
//
//snicvet:hotpath
func (h *retryTimer) HandleEvent(arg any) {
	fo, f := (*failover)(h), arg.(*flight)
	if f.done {
		return
	}
	ctx := fo.ctx
	switch {
	case f.waiting:
		f.waiting = false
		fo.retries++
		p := ctx.newPacket(f.seq, nicMTU, f.root)
		p.SentAt = f.sent
		ctx.tb.Wire.SendToServer(p, ctx.ingress)
		fo.arm(f)
	case f.attempts > fo.pol.MaxRetries:
		ctx.dropped++
		f.done = true
		ctx.closeRequest(f.root)
		ctx.noteDrop(f.seq, nicMTU)
	default:
		f.waiting = true
		ctx.tb.Eng.AfterCall(fo.pol.Backoff(f.attempts), h, f)
	}
}

// RunFaultedSet replays every scenario, fanning them across the
// runner's parallelism. Each replay builds its own testbed and router
// (mkRouter is called once per scenario so router state is never
// shared), and results merge in scenario order — identical to running
// RunFaulted in a loop.
func (r *Runner) RunFaultedSet(scns []FaultScenario, mkRouter func() *HealthRouter, tr *trace.HyperscalerTrace, hostCores int, seed uint64) []FaultResult {
	out := make([]FaultResult, len(scns))
	r.forEachN(len(scns), func(i int) {
		out[i] = r.RunFaulted(scns[i], mkRouter(), tr, hostCores, seed)
	})
	return out
}
