package core

import (
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The routed replays: §5.3's balanced replay and the failover replay
// built on it. The open-loop client (source) sends MTU REM packets at
// the trace's rates, and the eSwitch program is the router: a health
// router that picks the host or the SNIC accelerator from the engine's
// health and the backlog the balancer sees. A balanced run's router
// has no failover policy, so its balancer's spill threshold decides.
// The host and accelerator sinks step the request's record through one
// of two routes: host service, or staging and then REM, falling back
// to a host core when a crashed engine rejects the task.
//
// The families differ where a request ends. A balanced request
// completes when its service ends. A failover request completes when
// its response reaches the client, and it can be in service more than
// once: a retry does not recall the copy still in flight, so each copy
// is its own record. A request's own state, its retry state included,
// is its flight in a table indexed by sequence number. The table grows
// in chunks and is never recycled within the run, so an entry never
// moves (timer events point at it) and a late copy or timer always
// finds its own request's state. The run stops at a horizon, and the
// requests still unresolved there count as dropped.

// newRoutedCtx wires a routed replay of the REM trace workload under hr
// on a fresh testbed with hostCores host cores (0 keeps the default).
// Both sides are powered and ready: this is exactly the paper's point
// that reserved host cores cannot sleep (Key Observation 3). The host's
// share of traffic, the power model's io-traffic term, is known only
// once the run ends, so it stays 0 while the failover replay's power
// sensors sample.
func (r *Runner) newRoutedCtx(hr *HealthRouter, hostCores int, seed uint64, key, label string) *runctx {
	seed = r.runSeed(seed)
	ctx := r.newRunctx(r.TBConfig.withCores(hostCores, 0), HostCPU, "", seed, key, label)
	ctx.cfg = remMTU(trace.RuleSetExecutable)
	ctx.prof = netstack.ByKind(netstack.KindDPDK)
	ctx.sizes = trace.Fixed(nicMTU)
	ctx.router = hr
	tb := ctx.tb
	tb.StagingPool.SetQueueCapacity(4096)
	tb.ActivateSNICPools(0, 1)
	tb.SetPolling(SNICCPU, true)
	tb.SetPolling(HostCPU, true)
	return ctx
}

// runRouted programs the eSwitch, replays tr and runs to horizon: the
// software balancer's refresh reschedules itself indefinitely, so the
// run never drains. sensors starts the power sensors for the run, and
// the run's label names each interval's progress step.
func (r *Runner) runRouted(ctx *runctx, tr *trace.HyperscalerTrace, horizon sim.Time, sensors bool, label string) {
	tb, eng := ctx.tb, ctx.tb.Eng
	if !ctx.router.LB.HWAssist {
		eng.AtCall(0, (*viewRefresh)(ctx), nil)
	}
	instrumentTestbed(tb, ctx.rec, ctx.chk)
	tb.Sw.Program(ctx.steer)
	tb.Sw.ConnectSink(nic.ToHostCPU, (*hostSink)(ctx))
	tb.Sw.ConnectSink(nic.ToAccelerator, (*accelSink)(ctx))
	ctx.ingress = tb.Sw.Ingress
	src := &source{ctx: ctx, rates: tr.RatesGbps, interval: tr.Interval, i: -1,
		prog: r.newProgress(len(tr.RatesGbps)), label: label}
	eng.AtCall(0, src, nil)
	if sensors {
		tb.BMC.Start(horizon)
		tb.YoctoWatt.Start(horizon)
	}
	eng.RunUntil(horizon)
	ctx.abandon()
}

// flightChunk is how many flights one table chunk holds.
const flightChunk = 1024

// flight is one routed request's state: its first send, its root span,
// and whether it completed or was dropped; for failover, its sends so
// far, its latest timeout guard, and whether it waits out a backoff.
type flight struct {
	seq           uint64
	sent          sim.Time
	guard         sim.EventID
	attempts      int
	root          obs.SpanID
	waiting, done bool
}

// flight returns request seq's entry, growing the table to reach it.
//
//snicvet:hotpath
func (ctx *runctx) flight(seq uint64) *flight {
	for uint64(len(ctx.flights)) <= seq/flightChunk {
		//snicvet:ignore hotpath -- one chunk per flightChunk requests sent
		ctx.flights = append(ctx.flights, new([flightChunk]flight))
	}
	return &ctx.flights[seq/flightChunk][seq%flightChunk]
}

// routeSent opens the flight of a request the client just put on the
// wire.
//
//snicvet:hotpath
func (ctx *runctx) routeSent(p *nic.Packet) {
	f := ctx.flight(p.Seq)
	*f = flight{seq: p.Seq, sent: p.SentAt, root: obs.SpanID(p.Span)}
	if ctx.fo != nil {
		ctx.fo.sent(f)
	}
}

// abandon drops the requests still unresolved at the horizon, in
// sequence order, rather than pretending they were delivered.
func (ctx *runctx) abandon() {
	for seq := uint64(1); seq <= uint64(ctx.sent); seq++ {
		if f := ctx.flight(seq); !f.done {
			ctx.dropped++
			ctx.closeRequest(f.root)
			ctx.noteDrop(seq, nicMTU)
		}
	}
}

// steer is the routed replays' eSwitch program. The hardware balancer
// sees the backlog live, the software one as of its last refresh;
// health is always live, because a dead engine NACKs doorbells, which
// even a software router observes.
//
//snicvet:hotpath
func (ctx *runctx) steer(*nic.Packet) nic.Destination {
	bl := ctx.view
	if ctx.router.LB.HWAssist {
		bl = ctx.tb.backlog(EngineREM)
	}
	return ctx.router.Route(ctx.tb.REM.Health(), bl)
}

// viewRefresh re-reads the backlog for the software balancer every
// react interval.
type viewRefresh runctx

// HandleEvent refreshes the view and re-arms the refresh.
//
//snicvet:hotpath
func (h *viewRefresh) HandleEvent(any) {
	ctx := (*runctx)(h)
	ctx.view = ctx.tb.backlog(EngineREM)
	ctx.tb.Eng.AfterCall(ctx.router.LB.ReactInterval, h, nil)
}

// hostSink serves a routed copy on a host core.
type hostSink runctx

// HandleEvent takes the copy's record and queues its service.
//
//snicvet:hotpath
func (s *hostSink) HandleEvent(arg any) {
	ctx := (*runctx)(s)
	if r := ctx.takeRouted(arg.(*nic.Packet)); r != nil {
		ctx.serveHost(r)
	}
}

// accelSink stages a routed copy for REM on a staging core, which also
// pays the software balancer's per-packet monitoring cost.
type accelSink runctx

// HandleEvent takes the copy's record and queues its staging.
//
//snicvet:hotpath
func (s *accelSink) HandleEvent(arg any) {
	ctx := (*runctx)(s)
	r := ctx.takeRouted(arg.(*nic.Packet))
	if r == nil {
		return
	}
	ctx.snicServed++
	lb := &ctx.router.LB
	cycles := stagingCycles(ctx.prof.RxCycles(ctx.tb.SNICSpec.Arch, r.size), r.size)
	if !lb.HWAssist {
		cycles += lb.MonitorCycles
	}
	staging := ctx.tb.StagingPool
	r.exec(staging, hopRouteStaged, ctx.jit.LogNormalDur(staging.ServiceTime(cycles), 0.15))
}

// takeRouted takes the record of a copy arriving at a sink, or returns
// nil when it is a failover copy of a request already resolved.
//
//snicvet:hotpath
func (ctx *runctx) takeRouted(p *nic.Packet) *request {
	r := ctx.take(p)
	if ctx.flight(r.seq).done {
		ctx.release(r)
		return nil
	}
	return r
}

// serveHost queues a routed copy for a host core: DPDK receive and
// transmit plus REM's host cost, converted at the pool's current clock
// so an injected core throttle stretches it.
//
//snicvet:hotpath
func (ctx *runctx) serveHost(r *request) {
	ctx.hostServed++
	spec, cfg := ctx.tb.HostSpec, ctx.cfg
	cycles := ctx.prof.RxCycles(spec.Arch, r.size) +
		ctx.prof.TxCycles(spec.Arch, cfg.RespSize) +
		cfg.HostBaseCycles + cfg.HostPerByteCycles*float64(r.size)
	r.exec(ctx.pool, hopRouteHost, ctx.jit.LogNormalDur(ctx.pool.ServiceTime(cycles), cfg.HostSigma))
}

// routeServed ends a routed copy's service: a balanced request
// completes, a failover response heads back to the client.
//
//snicvet:hotpath
func (ctx *runctx) routeServed(r *request) {
	if ctx.fo == nil {
		ctx.routeDone(r)
		return
	}
	r.respond(ctx.cfg.RespSize)
	// The response's arrival completes the request without a
	// wire-return stage.
	r.hop = hopRouteReturned
}

// routeDone completes the request of copy r. A balanced completion
// marks the meter; a failover copy of a request already resolved just
// ends.
//
//snicvet:hotpath
func (ctx *runctx) routeDone(r *request) {
	f := ctx.flight(r.seq)
	if f.done {
		ctx.release(r)
		return
	}
	now := ctx.tb.Eng.Now()
	lat := now.Sub(r.sentAt)
	f.done = true
	ctx.closeRequest(r.root)
	if ctx.fo != nil {
		ctx.fo.complete(f, lat)
	} else {
		ctx.meter.Mark(now, r.size)
	}
	ctx.done++
	ctx.noteComplete(r.seq, r.size)
	//snicvet:ignore hotpath -- allocates only to format its panic on a negative latency
	ctx.hist.Record(lat)
	ctx.release(r)
}
