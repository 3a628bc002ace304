package core

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
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
// before now, and a negative retry count, backoff or watermark or a
// non-finite backoff multiplier would wedge or silently disable
// recovery.
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
	d := p.Timeout
	for k := 1; k <= p.MaxRetries; k++ {
		d += p.Backoff(k) + p.Timeout
	}
	return d
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
// empty plan is the fault-free baseline.
//
// RunFaulted is a thin adapter over Execute (the unified Workload API).
func (r *Runner) RunFaulted(scn FaultScenario, hr *HealthRouter, tr *trace.HyperscalerTrace, hostCores int, seed uint64) FaultResult {
	res, err := r.Execute(Workload{Kind: WorkloadFaulted, Scenario: &scn, Router: hr,
		Trace: tr, HostCores: hostCores, Seed: seed})
	if err != nil {
		panic(err)
	}
	return *res.Fault
}

// runFaultedImpl is the faulted-replay implementation behind
// Execute and RunFaulted. Execute has validated the router, the policy
// and the plan; a plan aimed at a component the testbed does not have
// fails here with a typed *fault.PlanError before anything runs.
func (r *Runner) runFaultedImpl(scn FaultScenario, hr *HealthRouter, tr *trace.HyperscalerTrace, hostCores int, seed uint64) (FaultResult, error) {
	cfg := remMTU(trace.RuleSetExecutable)
	pol := hr.Policy
	rkey := fmt.Sprintf("fault|%s|tb:%+v|cores:%d|pol:%+v|lb:%+v|tr:%s|seed:%d",
		scn.Name, r.TBConfig, hostCores, pol, hr.LB, traceFingerprint(tr), seed)
	rlabel := fmt.Sprintf("fault %s | cores %d | seed %d", scn.Name, hostCores, seed)
	seed = r.runSeed(seed)
	tbc := r.TBConfig
	tbc.Seed ^= seed
	if hostCores > 0 {
		tbc.HostCores = hostCores
	}
	tb := NewTestbed(tbc)
	eng := tb.Eng

	jit := sim.NewRNG(seed ^ 0x1234)
	arrivals := trace.NewPoissonArrivals(seed ^ 0xabcdef)

	hostPool := tb.HostPool
	hostPool.JitterSigma = 0
	hostPool.SetQueueCapacity(4096)
	staging := tb.StagingPool
	staging.JitterSigma = 0
	staging.SetQueueCapacity(4096)

	tb.ActivateSNICPools(0, 1)
	tb.SetPolling(SNICCPU, true)
	tb.SetPolling(HostCPU, true)

	// Every injectable component registers under a canonical name; plans
	// reference these names (see DefaultFaultScenarios).
	reg := fault.NewRegistry().
		AddEngine("rem", tb.REM).
		AddEngine("deflate", tb.Deflate).
		AddEngine("pka", tb.PKA).
		AddLink("wire", tb.Wire).
		AddPool("host", hostPool).
		AddPool("snic", tb.SNICPool).
		AddPool("staging", staging).
		AddSensor("bmc", tb.BMC).
		AddSensor("yoctowatt", tb.YoctoWatt)
	faultStart := scn.Plan.Start()
	faultEnd := scn.Plan.End()
	// Requests sent while the policy may still be repairing fault-era
	// damage (draining stalled queues, finishing retry chains) belong to
	// the fault population; the post population starts once the policy's
	// own worst-case schedule has provably run out.
	settleEnd := faultEnd.Add(pol.MaxDelay())
	span := tr.Duration()
	horizon := faultHorizon(&scn.Plan, pol, tr)
	flog, err := scn.Plan.Arm(eng, reg, nil)
	if err != nil {
		return FaultResult{}, err
	}

	hostProf := netstack.ByKind(netstack.KindDPDK)
	respSize := cfg.RespSize
	if respSize <= 0 {
		respSize = 64
	}

	// flight tracks one request across retries. done flips on the first
	// delivered response; stragglers from duplicated serves are ignored.
	type flight struct {
		seq       uint64
		size      int
		firstSent sim.Time
		attempts  int
		done      bool
		guard     sim.EventID
		span      obs.SpanID
	}
	inflight := make(map[uint64]*flight)
	var nextSeq uint64

	rec := r.newRecorder(rkey, rlabel)
	chk := r.newChecker(rlabel)
	stage := func(root obs.SpanID, name string, start, end sim.Time) {
		if root != 0 {
			rec.Span(obs.TrackRequests, name, root, start, end)
		}
	}

	nIntervals := len(tr.RatesGbps)
	sentBytes := make([]float64, nIntervals)
	doneBytes := make([]float64, nIntervals)
	intervalOf := func(t sim.Time) int {
		i := int(t / sim.Time(tr.Interval))
		if i >= nIntervals {
			i = nIntervals - 1
		}
		return i
	}

	histAll := stats.NewHistogram()
	histPre := stats.NewHistogram()
	histFault := stats.NewHistogram()
	histPost := stats.NewHistogram()

	var completed, dropped, retries, rescued, failedOver uint64
	var hostServed, snicServed uint64
	var lastFaultEraDone sim.Time

	complete := func(f *flight) {
		if f.done {
			return
		}
		f.done = true
		rec.Close(f.span, eng.Now())
		eng.Cancel(f.guard)
		delete(inflight, f.seq)
		completed++
		chk.Complete(f.seq, f.size, eng.Now())
		lat := eng.Now().Sub(f.firstSent)
		histAll.Record(lat)
		switch {
		case !scn.Plan.Empty() && f.firstSent < faultStart:
			histPre.Record(lat)
		case !scn.Plan.Empty() && f.firstSent < settleEnd:
			histFault.Record(lat)
			if f.firstSent < faultEnd && eng.Now() > lastFaultEraDone {
				lastFaultEraDone = eng.Now()
			}
		default:
			histPost.Record(lat)
		}
		// Delivered bytes bucket by completion time, so a fault that stalls
		// the datapath shows as a dip in the intervals it actually starved
		// (retried requests land their bytes late, where they belong).
		doneBytes[intervalOf(eng.Now())] += float64(f.size)
		if f.attempts > 1 {
			rescued++
		}
	}

	respond := func(f *flight) {
		resp := &nic.Packet{Seq: f.seq, Size: respSize, SentAt: f.firstSent}
		tb.Wire.SendToClient(resp, func(*nic.Packet) { complete(f) })
	}

	// ServiceTime (not raw BaseHz math) so an injected core throttle
	// stretches every service dispatched while it is active.
	var serveHost func(f *flight)
	serveHost = func(f *flight) {
		hostServed++
		cycles := hostProf.RxCycles(tb.HostSpec.Arch, f.size) +
			hostProf.TxCycles(tb.HostSpec.Arch, respSize) +
			cfg.HostBaseCycles + cfg.HostPerByteCycles*float64(f.size)
		svc := jit.LogNormalDur(hostPool.ServiceTime(cycles), cfg.HostSigma)
		hostPool.ExecDuration(svc, func(s, e sim.Time) {
			stage(f.span, spanService, s, e)
			respond(f)
		})
	}
	serveAccel := func(f *flight) {
		snicServed++
		stageCycles := hostProf.RxCycles(tb.SNICSpec.Arch, f.size) + 340 + 0.02*float64(f.size)
		if !hr.LB.HWAssist {
			stageCycles += hr.LB.MonitorCycles
		}
		svc := jit.LogNormalDur(staging.ServiceTime(stageCycles), 0.15)
		staging.ExecDuration(svc, func(s, e sim.Time) {
			stage(f.span, spanStaging, s, e)
			if err := tb.REM.Submit(f.size, func(es, ee sim.Time) {
				stage(f.span, spanEngine, es, ee)
				respond(f)
			}); err != nil {
				// Graceful degradation: a task staged into a crashed
				// engine re-serves on the host instead of being lost.
				snicServed--
				failedOver++
				serveHost(f)
			}
		})
	}

	// The software balancer sees backlog at its react interval; the
	// hardware one sees it instantly. Health is always instant: a dead
	// engine NACKs doorbells, which even a software router observes.
	backlog := func() int { return staging.QueueLen() + tb.REM.QueueLen()*16 }
	backlogView := 0
	if !hr.LB.HWAssist {
		var refresh func()
		refresh = func() {
			backlogView = backlog()
			eng.After(hr.LB.ReactInterval, refresh)
		}
		eng.At(0, refresh)
	}
	// Failover-specific gauges ride alongside the standard testbed set;
	// both must be registered before instrumentTestbed starts the sampler.
	rec.Gauge("failover/engine-healthy", "bool", 0, func() float64 {
		if tb.REM.Health() == accel.Healthy {
			return 1
		}
		return 0
	})
	rec.Gauge("failover/inflight", "reqs", 0, func() float64 { return float64(len(inflight)) })
	rec.Gauge("failover/backlog", "tasks", 0, func() float64 { return float64(backlog()) })
	instrumentTestbed(tb, rec, chk)

	tb.Sw.Program(func(*nic.Packet) nic.Destination {
		bl := backlogView
		if hr.LB.HWAssist {
			bl = backlog()
		}
		return hr.Route(tb.REM.Health(), bl)
	})
	tb.Sw.Connect(nic.ToHostCPU, func(p *nic.Packet) {
		if f := inflight[p.Seq]; f != nil && !f.done {
			serveHost(f)
		}
	})
	tb.Sw.Connect(nic.ToAccelerator, func(p *nic.Packet) {
		if f := inflight[p.Seq]; f != nil && !f.done {
			serveAccel(f)
		}
	})

	var send func(f *flight)
	onTimeout := func(f *flight) {
		if f.done {
			return
		}
		if f.attempts > pol.MaxRetries {
			dropped++
			f.done = true
			rec.Close(f.span, eng.Now())
			delete(inflight, f.seq)
			chk.Drop(f.seq, f.size, eng.Now())
			return
		}
		eng.After(pol.Backoff(f.attempts), func() {
			if !f.done {
				send(f)
			}
		})
	}
	send = func(f *flight) {
		f.attempts++
		if f.attempts > 1 {
			retries++
		}
		pkt := &nic.Packet{Seq: f.seq, Size: f.size, SentAt: f.firstSent}
		tb.Wire.SendToServer(pkt, tb.Sw.Ingress)
		f.guard = eng.After(pol.Timeout, func() { onTimeout(f) })
	}

	var total uint64
	interval := tr.Interval
	prog := r.newProgress(nIntervals)
	var runInterval func(i int)
	runInterval = func(i int) {
		if i >= nIntervals {
			return
		}
		prog.step("fault " + scn.Name)
		rate := tr.RatesGbps[i]
		end := eng.Now().Add(interval)
		var submit func()
		submit = func() {
			if eng.Now() >= end {
				runInterval(i + 1)
				return
			}
			if rate > 0 {
				total++
				f := &flight{seq: nextSeq, size: nicMTU, firstSent: eng.Now()}
				f.span = rec.Open(obs.TrackRequests, spanRequest, eng.Now())
				nextSeq++
				inflight[f.seq] = f
				chk.Inject(f.seq, f.size, eng.Now())
				sentBytes[intervalOf(f.firstSent)] += float64(nicMTU)
				send(f)
				eng.After(arrivals.Gap(nicMTU, rate*1e9), submit)
			} else {
				eng.At(end, submit)
			}
		}
		submit()
	}
	eng.At(0, func() { runInterval(0) })

	// The software monitor reschedules itself indefinitely, so RunUntil
	// the precomputed horizon rather than Run to drain.
	// Sensors always run during fault replays: a SensorDropout plan needs a
	// live trace to carve its gap into, and the report surfaces how many
	// samples the gap swallowed.
	tb.StartSensors(horizon)
	eng.RunUntil(horizon)

	res := FaultResult{
		Scenario:           scn.Name,
		Total:              total,
		Completed:          completed,
		Retries:            retries,
		Rescued:            rescued,
		FailedOver:         failedOver,
		Transitions:        len(flog.Transitions),
		WireFramesLost:     tb.Wire.Lost(),
		EngineRejected:     tb.REM.Rejected(),
		BMCMissedSamples:   tb.BMC.MissedSamples(),
		YoctoMissedSamples: tb.YoctoWatt.MissedSamples(),
	}
	// Flights still pending at the horizon never resolved: count them
	// with the drops rather than pretending they were delivered. Close
	// spans in sequence order so the exported trace does not depend on
	// map iteration order.
	pending := make([]uint64, 0, len(inflight))
	for seq, f := range inflight {
		if !f.done {
			pending = append(pending, seq)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	for _, seq := range pending {
		dropped++
		rec.Close(inflight[seq].span, eng.Now())
		chk.Drop(seq, inflight[seq].size, eng.Now())
	}
	res.Dropped = dropped
	if chk != nil {
		chk.VerifyCounts(total, completed, eng.Now())
		if err := chk.Finish(eng.Now()); err != nil {
			panic(err)
		}
		// Stragglers are legal here: a request abandoned at its retry
		// timeout closes its root span while the stale in-service copy
		// still records a child afterwards.
		if err := invariant.CheckSpans(rec, invariant.SpanCheckOpts{AllowStragglers: true}); err != nil {
			panic(err)
		}
	}
	if served := hostServed + snicServed; served > 0 {
		res.HostShare = float64(hostServed) / float64(served)
	}
	tb.SetHostTrafficShare(res.HostShare)
	tb.SetEngineUtil(tb.REM.Utilization())

	var doneBits float64
	res.MinDeliveredFrac = 1
	for i, sent := range sentBytes {
		doneBits += doneBytes[i] * 8
		// Interval 0 has no inflow from a predecessor, so its delivered
		// fraction is structurally short by one latency's worth of mass;
		// skip it rather than report a phantom dip. Near-idle intervals
		// (a handful of packets, as in the hyperscaler trace's valleys)
		// are skipped too: with so few samples the fraction is shot noise,
		// not a throughput dip.
		if i > 0 && sent >= 16*nicMTU {
			if frac := doneBytes[i] / sent; frac < res.MinDeliveredFrac {
				res.MinDeliveredFrac = frac
			}
		}
	}
	res.AvgTputGbps = doneBits / span.Seconds() / 1e9
	res.P99 = histAll.P99()
	res.P99Pre = histPre.P99()
	res.P99Fault = histFault.P99()
	res.P99Post = histPost.P99()
	if lastFaultEraDone > faultEnd {
		res.RecoveryTime = lastFaultEraDone.Sub(faultEnd)
	}
	res.AvgPowerW = float64(tb.Power.Server.Power())

	if rec != nil {
		rec.SetCount("requests.sent", float64(total))
		rec.SetCount("requests.completed", float64(completed))
		rec.SetCount("requests.dropped", float64(dropped))
		rec.SetCount("failover.retries", float64(retries))
		rec.SetCount("failover.rescued", float64(rescued))
		rec.SetCount("failover.failed_over", float64(failedOver))
		rec.SetCount("sensor.bmc.missed", float64(res.BMCMissedSamples))
		rec.SetCount("sensor.yoctowatt.missed", float64(res.YoctoMissedSamples))
		// The sensor traces themselves (with any dropout gap) export as
		// extra series alongside the gauge-sampled power readings.
		rec.AddSeries("power/bmc-trace", "W", tb.BMC.Period, tb.BMC.Trace.Times, tb.BMC.Trace.Values)
		rec.AddSeries("power/yoctowatt-trace", "W", tb.YoctoWatt.Period, tb.YoctoWatt.Trace.Times, tb.YoctoWatt.Trace.Values)
		r.Telemetry.Attach(rec)
	}
	return res, nil
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
