package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/flow"
	"repro/internal/invariant"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Measurement is one (function, variant, platform) result — a cell of
// Fig. 4/Fig. 6, or one operating point of Fig. 5.
type Measurement struct {
	Function string
	Variant  string
	Platform Platform

	OfferedGbps   float64
	Ops           uint64
	TputOps       float64 // operations per second
	TputGbps      float64 // payload data rate
	DeliveredFrac float64 // completions / offered within the window
	Latency       stats.Summary

	ServerPowerW float64 // BMC-domain average (includes SNIC)
	SNICPowerW   float64 // Yocto-Watt-domain average
	// EffOpsPerJoule and EffBitsPerJoule are system-wide energy
	// efficiencies (throughput over server power).
	EffOpsPerJoule  float64
	EffBitsPerJoule float64

	HostUtil, SNICUtil, EngineUtil float64
}

func (m Measurement) String() string {
	return fmt.Sprintf("%s/%s on %s: %.3f Gb/s (%.0f ops/s), p99 %v, server %.1f W",
		m.Function, m.Variant, m.Platform, m.TputGbps, m.TputOps, m.Latency.P99, m.ServerPowerW)
}

// RunOpts controls one simulation run.
type RunOpts struct {
	// OfferedGbps is the open-loop request payload rate (ignored by
	// closed-loop modes).
	OfferedGbps float64
	// Requests is how many requests the client issues (open loop) or
	// how many operations complete before the run ends (closed loop).
	Requests int
	// WarmupFrac of early completions are excluded from statistics.
	WarmupFrac float64
	// Seed perturbs the run's random streams.
	Seed uint64
}

// DefaultRunOpts returns measurement-grade settings.
func DefaultRunOpts() RunOpts {
	return RunOpts{Requests: 24000, WarmupFrac: 0.15, Seed: 7}
}

// probeOpts returns quick settings for capacity probing.
func probeOpts(seed uint64) RunOpts {
	return RunOpts{Requests: 6000, WarmupFrac: 0.2, Seed: seed}
}

// Runner executes catalog entries on platforms. A Runner is safe for
// concurrent use: every simulation builds a private Testbed, and the
// memo cache and progress plumbing are internally synchronized. Set
// TBConfig/Parallelism/Progress before launching experiments, not while
// they run. Runners hold locks — share by pointer, never copy.
type Runner struct {
	// Testbed configuration template.
	TBConfig TestbedConfig
	// Parallelism bounds how many simulations the experiment drivers
	// (Fig4For, Fig5, Table4, RunFaultedSet, AdviseAll) run concurrently.
	// 0 and 1 both mean sequential; results are byte-identical at every
	// setting because merges happen in submission order.
	Parallelism int
	// Progress, when set, receives per-row completion callbacks from the
	// experiment drivers and per-probe callbacks from MaxThroughput.
	// Invocations are serialized; done counts are per-experiment. The
	// callback must not mutate the runner.
	Progress func(done, total int, label string)
	// Telemetry, when set, collects a per-run obs.Recorder from every
	// simulation: request spans, sampled gauges, and resource counters,
	// exported deterministically at any parallelism. Nil disables all
	// recording (the default); see snic.WithTelemetry.
	Telemetry *obs.Collector
	// Checks enables checked execution: every simulation gets a per-run
	// invariant.Checker that validates conservation, causality, clock
	// monotonicity and queue sanity online and panics with a typed
	// *invariant.Violation on the first broken law. Off by default; see
	// snic.WithInvariantChecks and internal/invariant.
	Checks bool
	// Prof, when set (via SetProfiler), aggregates simulator
	// self-profiling — engine events, heap high-water, cancel sweeps,
	// cache and pool traffic — across every simulation. Nil disables all
	// self-profiling (the default); see snic.WithSelfProfile.
	Prof *Profiler

	cache  measureCache
	sims   atomic.Uint64
	progMu sync.Mutex
	// finished, when set, sees each run as finish begins (for tests).
	finished func(*runctx)
}

// NewRunner returns a runner with the default testbed.
func NewRunner() *Runner { return &Runner{TBConfig: DefaultTestbedConfig()} }

// Sims returns how many simulations this runner has actually executed
// (cache hits excluded) — the denominator of the memoization win.
func (r *Runner) Sims() uint64 { return r.sims.Load() }

// runctx is the per-run wiring every run family shares: point runs,
// pipelines, Table 4 and fleet replays, flow offload, and the balanced
// and failover replays.
type runctx struct {
	tb   *Testbed
	cfg  *Config // the point or replay config; nil on pipeline and offload runs
	plat Platform
	opts RunOpts

	// ps is the net-serve request path the sinks step requests through:
	// the single phase PipelineFromConfig builds for a point or replay
	// run, or a pipeline's chain. A storage or switched run's ps is its
	// config's phase, which prices the posting and upcall jobs; nil on
	// local and offload runs. tally counts each phase's requests.
	// phaseMarks holds each phase's span label and ledger handle; only
	// pipeline runs set it, and only they emit phase spans, phase-ledger
	// calls and phase/ counters.
	ps         *PipelineSpec
	pol        FallbackPolicy
	tally      []PhaseStat
	phaseMarks []phaseMark
	// medians memoizes each phase's last median service time (see
	// phaseSvc); setPath sizes it with tally.
	medians []phaseMedian

	prof     netstack.Profile
	pool     *cpu.Pool // the platform's pool, where the stack terminates
	ep       *netstack.Endpoint
	arrivals *trace.Arrivals
	sizes    trace.SizeDist
	jit      *sim.RNG

	hist    *stats.Histogram
	meter   *stats.Meter
	sent    int
	done    int
	warmupN int

	// lastSend closes the measurement window: counting completions that
	// straggle in during the post-send drain would understate overload
	// (the drain stretches the window) and hide saturation.
	lastSend sim.Time

	// rec is the run's telemetry recorder; nil when telemetry is off.
	// rootLabel and stageLabels are its request-track span labels,
	// interned once per run (internLabels).
	rec         *obs.Recorder
	rootLabel   obs.SpanLabel
	stageLabels [numStageSpans]obs.SpanLabel
	// chk is the run's invariant checker; nil when checks are off.
	chk *invariant.Checker
	// childSpans is set when rec or chk is (see child).
	childSpans bool

	// freeReqs and freePkts are the run's free lists of request records
	// and client packets (see request.go).
	freeReqs *request
	freePkts []*nic.Packet
	// ingress is tb.Sw.Ingress, bound once per run (see connectSinks).
	ingress func(*nic.Packet)
	// upcall draws the switched mode's control-plane upcalls, and
	// swArrived is switchedArrival bound once per run.
	upcall    *sim.RNG
	swArrived func(*nic.Packet)

	// The offload run's flow plane (see offload.go): its spec, the flow
	// table and controller, the decomposition replaySource draws each
	// packet's flow from, and the fast- and slow-path packet counts.
	offload    *OffloadSpec
	tbl        *flow.Table
	ctl        *flow.Controller
	asn        *trace.FlowAssigner
	fast, slow uint64

	// The routed replays (see routed.go): the router, the backlog the
	// software balancer last read, the copies each side served, those a
	// crashed engine handed to the host, the requests dropped, and each
	// request's flight. fo is the failover replay's retry machinery.
	router                             *HealthRouter
	view                               int
	hostServed, snicServed, failedOver uint64
	dropped                            uint64
	flights                            []*[flightChunk]flight
	fo                                 *failover
}

// noteSent records a request issue; at the final request it arranges the
// meter to close, truncating the window at the end of offered load.
func (ctx *runctx) noteSent() {
	ctx.sent++
	if ctx.sent == ctx.opts.Requests {
		ctx.lastSend = ctx.tb.Eng.Now()
	}
}

// Run returns the measurement of cfg on platform at the given operating
// point, simulating it the first time and serving the memoized result —
// byte-identical by determinism — on every repeat of the same
// (config, platform, testbed, options) key.
//
// Run is a thin adapter over Execute (the unified Workload API); it
// keeps the legacy panic on an impossible (config, platform) pairing.
func (r *Runner) Run(cfg *Config, plat Platform, opts RunOpts) Measurement {
	if !cfg.HasPlatform(plat) {
		panic(fmt.Sprintf("core: %s does not run on %s", cfg.Name(), plat))
	}
	res, err := r.Execute(Workload{Kind: WorkloadPoint, Config: cfg, Platform: plat, Opts: opts})
	if err != nil {
		panic(err)
	}
	return *res.Point
}

// runSeed folds the testbed's master seed into one run's seed. The
// default master seed leaves per-run streams exactly as a standalone
// opts.Seed would, so the published figures are unchanged; any other
// WithSeed/TBConfig.Seed value shifts every derived stream.
func (r *Runner) runSeed(seed uint64) uint64 {
	return seed ^ (r.TBConfig.Seed^defaultMasterSeed)*0x9e3779b97f4a7c15
}

// newRunctx wires one run on a fresh testbed built from tbc: seed
// derives the run's random streams, plat's pool serves (queue-bounded;
// the run draws service jitter from its own stream), stack
// terminates there unless it is empty, and key and label name the run's
// telemetry. The caller instruments the testbed once its pools and
// gauges are set.
func (r *Runner) newRunctx(tbc TestbedConfig, plat Platform, stack netstack.Kind, seed uint64, key, label string) *runctx {
	r.sims.Add(1)
	tb := NewTestbed(tbc)
	ctx := &runctx{
		tb: tb, plat: plat,
		arrivals: trace.NewPoissonArrivals(seed ^ 0xabcdef),
		jit:      sim.NewRNG(seed ^ 0x1234),
		hist:     stats.NewHistogram(),
		rec:      r.newRecorder(key, label),
		chk:      r.newChecker(label),
	}
	ctx.childSpans = ctx.rec != nil || ctx.chk != nil
	ctx.internLabels()
	ctx.pool = tb.PoolFor(plat)
	ctx.pool.SetQueueCapacity(4096)
	if stack != "" {
		ctx.prof = netstack.ByKind(stack)
		ctx.ep = netstack.NewEndpoint(ctx.prof, ctx.pool, seed^0x77)
	}
	return ctx
}

// atPoint wires a run at an operating point: the run's streams derive
// from opts.Seed and the cores default unless overridden.
func (r *Runner) atPoint(hostCores, snicCores int, plat Platform, stack netstack.Kind, opts RunOpts, key, label string) *runctx {
	seed := r.runSeed(opts.Seed)
	ctx := r.newRunctx(r.TBConfig.withCores(hostCores, snicCores), plat, stack, seed, key, label)
	ctx.opts = opts
	ctx.warmupN = int(float64(opts.Requests) * opts.WarmupFrac)
	if ctx.warmupN == 0 {
		// No completion ends a warmup, so the meter opens at t=0 and
		// every completion counts.
		ctx.meter = stats.NewMeter(0)
	}
	return ctx
}

// setPath makes ps the run's net-serve request path. Every pool a phase
// binds gets the phase's queue bound; when an engine phase could spill,
// the host pool is bounded too, so spilled work sheds instead of
// queueing without limit.
func (ctx *runctx) setPath(ps *PipelineSpec) {
	ctx.ps, ctx.pol = ps, ps.policy()
	ctx.tally = make([]PhaseStat, len(ps.Phases))
	ctx.medians = make([]phaseMedian, len(ps.Phases))
	for i := range ps.Phases {
		ph := &ps.Phases[i]
		ctx.tally[i] = PhaseStat{Name: ph.Name, Resource: ph.Resource}
		ctx.tb.PoolFor(ph.platform()).SetQueueCapacity(ph.queueCap())
	}
	if ps.uses(ResEngine) {
		if ctx.tb.HostPool.QueueCapacity() <= 0 {
			ctx.tb.HostPool.SetQueueCapacity(4096)
		}
	}
}

// simulate builds a fresh testbed and executes one point run. A
// net-served config runs the single phase PipelineFromConfig builds.
func (r *Runner) simulate(cfg *Config, plat Platform, opts RunOpts) Measurement {
	ctx := r.atPoint(cfg.HostCores, cfg.SNICCores, plat, cfg.Stack, opts,
		runKey(cfg, plat, r.TBConfig, opts), runLabel(cfg, plat, opts))
	ctx.cfg = cfg
	switch cfg.Mode {
	case ModeNetServe:
		ctx.setPath(PipelineFromConfig(cfg, plat))
	case ModeStorage, ModeSwitched:
		ctx.ps = configPipeline(cfg, plat)
	}
	if cfg.Mixed {
		ctx.sizes = trace.CTUMixed()
	} else {
		ctx.sizes = trace.Fixed(cfg.ReqSize)
	}
	instrumentTestbed(ctx.tb, ctx.rec, ctx.chk)
	ctx.tb.setPower(plat == HostCPU, plat == SNICCPU, plat == SNICAccel,
		cfg.Stack == netstack.KindDPDK && cfg.Mode != ModeSwitched)

	switch cfg.Mode {
	case ModeNetServe:
		ctx.runNetServe()
	case ModeLocal:
		ctx.runLocal()
	case ModeStorage:
		ctx.runStorage()
	case ModeSwitched:
		ctx.runSwitched()
	default:
		panic(fmt.Sprintf("core: unknown mode %q", cfg.Mode))
	}
	r.finish(ctx)
	m := ctx.measurement()
	m.Function, m.Variant = cfg.Function, cfg.Variant
	return m
}

// extraLatency returns the per-platform calibrated fixed residual.
func (ctx *runctx) extraLatency() sim.Duration {
	if ctx.cfg.ExtraLatency == nil {
		return 0
	}
	return ctx.cfg.ExtraLatency[ctx.plat]
}

// minWindowOps is the fewest completions a throughput window rates. In
// deep overload the warmup can end just before the last send, leaving a
// window of one or two completions whose rate means nothing; such a
// window keeps counting drain completions until it holds this many.
const minWindowOps = 16

// record tallies one completed operation.
func (ctx *runctx) record(rtt sim.Duration, bytes int) {
	ctx.done++
	if ctx.done == ctx.warmupN {
		ctx.meter = stats.NewMeter(ctx.tb.Eng.Now())
		return
	}
	if ctx.done < ctx.warmupN || ctx.meter == nil {
		return
	}
	ctx.hist.Record(rtt)
	// Completions that straggle in after the offered load ended are
	// drain artifacts: they belong in the latency distribution but not
	// in the throughput window, once the window is long enough to rate.
	if ctx.lastSend > 0 && ctx.tb.Eng.Now() > ctx.lastSend && ctx.meter.Ops() >= minWindowOps {
		return
	}
	ctx.meter.Mark(ctx.tb.Eng.Now(), bytes)
}

// ---- ModeNetServe ----

// runNetServe drives the open-loop client through the run's phase path.
func (ctx *runctx) runNetServe() {
	ctx.connectSinks()
	ctx.tb.Eng.AtCall(0, (*netSubmit)(ctx), nil)
	ctx.tb.Eng.Run()
	ctx.finishEngineUtil()
}

// netSubmit issues the open-loop client's next request, then re-arms
// itself one arrival gap later.
type netSubmit runctx

// HandleEvent sends one request toward the eSwitch.
//
//snicvet:hotpath
func (s *netSubmit) HandleEvent(any) {
	ctx := (*runctx)(s)
	if ctx.sent >= ctx.opts.Requests {
		return
	}
	ctx.noteSent()
	size := ctx.sizes.Next(ctx.jit)
	pkt := ctx.newPacket(uint64(ctx.sent), size, ctx.openRequest())
	ctx.noteInject(pkt.Seq, size)
	ctx.tb.Wire.SendToServer(pkt, ctx.ingress)
	ctx.tb.Eng.AfterCall(ctx.arrivals.Gap(size, ctx.opts.OfferedGbps*1e9), s, nil)
}

// connectSinks steers every ingress packet to the sink of the first
// phase's resource and binds the receiver the client loops send with.
// Evaluating a method value allocates, so the loops reuse this one
// instead of naming tb.Sw.Ingress per packet.
func (ctx *runctx) connectSinks() {
	dest := nic.ToHostCPU
	switch ctx.ps.Phases[0].Resource {
	case ResSNICCore:
		dest = nic.ToSNICCPU
	case ResEngine:
		dest = nic.ToAccelerator
	}
	ctx.tb.Sw.Program(func(*nic.Packet) nic.Destination { return dest })
	ctx.tb.Sw.ConnectSink(dest, (*netSink)(ctx))
	ctx.ingress = ctx.tb.Sw.Ingress
}

// ---- ModeLocal (crypto, compression) ----

func (ctx *runctx) runLocal() {
	for i := 0; i < ctx.closedDepth(); i++ {
		ctx.tb.Eng.AtCall(0, (*localWorker)(ctx), nil)
	}
	ctx.tb.Eng.Run()
	if ctx.plat == SNICAccel {
		ctx.tb.SetEngineUtil(ctx.tb.engineUtilization(ctx.cfg.Engine))
	}
}

// localWorker starts one closed-loop worker; each completion issues
// the worker's next operation.
type localWorker runctx

// HandleEvent issues the worker's first operation.
//
//snicvet:hotpath
func (w *localWorker) HandleEvent(any) { (*runctx)(w).localIssue() }

// localIssue issues one closed-loop operation.
//
//snicvet:hotpath
func (ctx *runctx) localIssue() {
	if ctx.sent >= ctx.opts.Requests {
		return
	}
	ctx.sent++
	r := ctx.newRequest()
	r.seq, r.size, r.sentAt = uint64(ctx.sent), ctx.cfg.LocalOpBytes, ctx.tb.Eng.Now()
	r.root = ctx.openRequest()
	ctx.noteInject(r.seq, r.size)
	switch ctx.plat {
	case HostCPU, SNICCPU:
		r.exec(ctx.pool, hopLocalServed, ctx.jit.LogNormalDur(localOpTime(ctx.tb, ctx.cfg, ctx.plat, r.size), 0.12))
	case SNICAccel:
		// One staging core programs the engine's command registers.
		spec := ctx.tb.SNICSpec
		r.exec(ctx.pool, hopLocalStaged, sim.Cycles(400/spec.IPC, spec.BaseHz))
	}
}

// finishLocal completes an operation and issues the worker's next one.
//
//snicvet:hotpath
func (r *request) finishLocal() {
	ctx := r.ctx
	r.finish()
	ctx.localIssue()
}

// closedDepth returns the closed-loop depth for the current platform.
func (ctx *runctx) closedDepth() int {
	d := ctx.cfg.Closed
	if ctx.plat != HostCPU && ctx.cfg.ClosedSNIC > 0 {
		d = ctx.cfg.ClosedSNIC
	}
	if d <= 0 {
		d = 1
	}
	return d
}

// ---- ModeStorage (fio over NVMe-oF) ----

// Block I/O geometry: every request moves one 64 KB block, and the
// RAMDisk target behind the NVMe-oF offload engine serves it in a fixed
// device time.
const (
	storageBlock     = 64 << 10
	storageDeviceLat = 9 * sim.Microsecond
)

// runStorage drives block I/O open-loop at the offered data rate: fio
// keeps the configured iodepth outstanding, which against a RAMDisk
// target behind the NVMe-oF offload engine keeps the wire, not the
// round trip, the bottleneck.
func (ctx *runctx) runStorage() {
	ctx.tb.Eng.AtCall(0, (*storageIssue)(ctx), nil)
	ctx.tb.Eng.Run()
}

// storageIssue issues the next block I/O, then re-arms itself one
// arrival gap later.
type storageIssue runctx

// HandleEvent has the initiator CPU post one command.
//
//snicvet:hotpath
func (s *storageIssue) HandleEvent(any) {
	ctx := (*runctx)(s)
	if ctx.sent >= ctx.opts.Requests {
		return
	}
	ctx.noteSent()
	r := ctx.newRequest()
	r.seq, r.size, r.sentAt = uint64(ctx.sent), storageBlock, ctx.tb.Eng.Now()
	ctx.noteInject(r.seq, storageBlock)
	r.root = ctx.openRequest()
	spec := ctx.tb.SpecFor(ctx.plat)
	r.exec(ctx.pool, hopPosted, ctx.jit.LogNormalDur(
		sim.Cycles(ctx.ps.Phases[0].appCycles(ctx.cfg.ReqSize, false)/spec.IPC, spec.BaseHz), 0.15))
	ctx.tb.Eng.AfterCall(ctx.arrivals.Gap(storageBlock, ctx.opts.OfferedGbps*1e9), s, nil)
}

// ioCommand puts a posted command on the wire. The target's NVMe-oF
// offload engine serves it with no CPU, then the data block crosses
// back (read) or is written (write) — either way one 64 KB transfer
// occupies the wire.
type ioCommand request

// HandleEvent sends the command.
//
//snicvet:hotpath
func (h *ioCommand) HandleEvent(any) {
	r := (*request)(h)
	r.mark = r.ctx.tb.Eng.Now()
	r.resp = nic.Packet{Size: 96, SentAt: r.sentAt}
	r.hop = hopCommanded
	r.ctx.tb.Wire.SendToClient(&r.resp, r.arrived)
}

// ioDevice sends the data block once the target device has served the
// command.
type ioDevice request

// HandleEvent sends the data block.
//
//snicvet:hotpath
func (h *ioDevice) HandleEvent(any) {
	r := (*request)(h)
	now := r.ctx.tb.Eng.Now()
	r.ctx.stage(r, spanDevice, r.mark, now)
	r.mark = now
	r.resp = nic.Packet{Size: storageBlock, SentAt: r.sentAt}
	r.hop = hopStored
	r.ctx.tb.Wire.SendToServer(&r.resp, r.arrived)
}

// ---- ModeSwitched (OvS) ----

func (ctx *runctx) runSwitched() {
	ctx.upcall = ctx.jit.Fork(5)
	ctx.swArrived = ctx.switchedArrival
	ctx.tb.Eng.AtCall(0, (*switchedSubmit)(ctx), nil)
	ctx.tb.Eng.Run()
}

// switchedSubmit sends the client's next frame, then re-arms itself
// one arrival gap later.
type switchedSubmit runctx

// HandleEvent sends one frame toward the eSwitch's hardware datapath.
//
//snicvet:hotpath
func (s *switchedSubmit) HandleEvent(any) {
	ctx := (*runctx)(s)
	if ctx.sent >= ctx.opts.Requests {
		return
	}
	ctx.noteSent()
	size := ctx.cfg.ReqSize
	pkt := ctx.newPacket(uint64(ctx.sent), size, ctx.openRequest())
	ctx.noteInject(pkt.Seq, size)
	ctx.tb.Wire.SendToServer(pkt, ctx.swArrived)
	ctx.tb.Eng.AfterCall(ctx.arrivals.Gap(size+nic.EthernetOverhead, ctx.opts.OfferedGbps*1e9), s, nil)
}

// switchedArrival forwards an arrived frame in hardware and draws the
// control-plane upcall a cache-miss flow costs the platform's cores.
//
//snicvet:hotpath
func (ctx *runctx) switchedArrival(p *nic.Packet) {
	r := ctx.take(p)
	// Hardware datapath: eSwitch forwards at line rate.
	ctx.tb.Eng.AfterCall(ctx.tb.Sw.SwitchDelay, (*switchedForward)(r), nil)
	if ctx.upcall.Float64() < ctx.cfg.UpcallFrac {
		spec := ctx.tb.SpecFor(ctx.plat)
		ctx.pool.ExecDuration(sim.Cycles(ctx.ps.Phases[0].appCycles(r.size, false)/spec.IPC, spec.BaseHz), nil)
	}
}

// switchedForward reflects a switched frame back toward the client.
type switchedForward request

// HandleEvent sends the forwarded frame.
//
//snicvet:hotpath
func (h *switchedForward) HandleEvent(any) {
	r := (*request)(h)
	r.ctx.stage(r, spanIngress, r.sentAt, r.ctx.tb.Eng.Now())
	r.respond(r.size)
}

// ---- Results ----

// measurement reports the run's operating point; the caller names it.
func (ctx *runctx) measurement() Measurement {
	m := Measurement{
		Platform:    ctx.plat,
		OfferedGbps: ctx.opts.OfferedGbps,
		Latency:     ctx.hist.Summarize(),
		HostUtil:    ctx.tb.HostPool.Utilization(),
		EngineUtil:  ctx.tb.engineUtil,
	}
	if ctx.plat == SNICAccel || (ctx.ps != nil && ctx.ps.uses(ResEngine)) {
		m.SNICUtil = ctx.tb.StagingPool.Utilization()
	} else {
		m.SNICUtil = ctx.tb.SNICPool.Utilization()
	}
	if ctx.meter != nil {
		closeAt := ctx.tb.Eng.Now()
		if ctx.lastSend > 0 && ctx.lastSend < closeAt {
			closeAt = ctx.lastSend
		}
		ctx.meter.Close(closeAt)
		m.Ops = ctx.meter.Ops()
		m.TputOps = ctx.meter.OpsPerSec()
		m.TputGbps = ctx.meter.Gbps()
	}
	if ctx.opts.OfferedGbps > 0 {
		// Sustainability signal: achieved data rate over offered. In an
		// overloaded open-loop run the drain tail stretches the meter
		// window, so achieved ≈ service capacity < offered.
		m.DeliveredFrac = m.TputGbps / ctx.opts.OfferedGbps
	} else {
		m.DeliveredFrac = 1
	}
	// Average power from the calibrated model over run-average
	// utilizations (the signals are cumulative).
	m.ServerPowerW = float64(ctx.tb.Power.Server.Power())
	m.SNICPowerW = float64(ctx.tb.Power.SNIC.Power())
	if m.ServerPowerW > 0 {
		m.EffOpsPerJoule = m.TputOps / m.ServerPowerW
		m.EffBitsPerJoule = m.TputGbps * 1e9 / m.ServerPowerW
	}
	return m
}

// ---- Max-throughput search ----

// MaxThroughput finds the paper's operating point: the highest offered
// rate the platform sustains (delivered ≈ offered), then measures
// throughput, p99 and power there (§4: "We set the packet rate at which
// we get the maximum throughput ... and then measure the p99 latency at
// that rate").
func (r *Runner) MaxThroughput(cfg *Config, plat Platform) Measurement {
	label := "search " + cfg.Name() + " @ " + string(plat)
	if cfg.Mode == ModeLocal {
		// Closed-loop mode self-saturates; no search needed.
		prog := r.newProgress(1)
		defer prog.step(label)
		return r.Run(cfg, plat, DefaultRunOpts())
	}
	if cfg.Mode == ModeSwitched {
		// OvS runs at its configured load fraction of line rate.
		load := 1.0
		if cfg.Variant == "load10" {
			load = 0.10
		}
		opts := DefaultRunOpts()
		opts.OfferedGbps = load * r.TBConfig.LinkGbps() * float64(cfg.ReqSize) / float64(cfg.ReqSize+nic.EthernetOverhead)
		prog := r.newProgress(1)
		defer prog.step(label)
		return r.Run(cfg, plat, opts)
	}

	// 11 runs: light-load baseline, 9 binary-search probes, final point.
	prog := r.newProgress(11)
	est := configGbps(NewTestbed(r.TBConfig.withCores(cfg.HostCores, cfg.SNICCores)), r.TBConfig.LinkGbps(), cfg, plat)
	// Baseline latency at light load defines the "reasonable p99" bound
	// for the knee search (cf. Fig. 5: the host's REM throughput is
	// quoted "when a reasonable p99 latency value is considered").
	baseOpts := probeOpts(11)
	baseOpts.OfferedGbps = est * 0.2
	baseline := r.Run(cfg, plat, baseOpts)
	prog.step(label)
	p99Cap := sim.Duration(float64(baseline.Latency.P99) * cfg.kneeMult())

	lo, hi := est*0.3, math.Min(est*1.9, r.TBConfig.LinkGbps()*0.98)
	if hi <= lo {
		hi = lo * 1.5
	}
	best := lo
	for i := 0; i < 9; i++ {
		mid := (lo + hi) / 2
		opts := probeOpts(uint64(100 + i))
		opts.OfferedGbps = mid
		probe := r.Run(cfg, plat, opts)
		prog.step(label)
		if probe.DeliveredFrac >= 0.97 && probe.Latency.P99 <= p99Cap {
			best = mid
			lo = mid
		} else {
			hi = mid
		}
	}
	defer prog.step(label)
	opts := DefaultRunOpts()
	// Measure below the accepted knee: the longer measurement window
	// would otherwise random-walk a borderline queue deeper than the
	// short probes saw. Batching accelerators get extra headroom — their
	// queues are in whole batches, so the walk is coarser.
	margin := 0.97
	if plat == SNICAccel {
		margin = 0.93
	}
	opts.OfferedGbps = best * margin
	return r.Run(cfg, plat, opts)
}

// kneeMult is the "reasonable p99" multiplier over light-load latency
// that defines the maximum sustainable operating point.
func (c *Config) kneeMult() float64 {
	if c.KneeP99Mult > 0 {
		return c.KneeP99Mult
	}
	return 3.0
}
