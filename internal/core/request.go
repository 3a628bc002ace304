package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/cpu"
	"repro/internal/invariant"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The per-request record of every run family, all on runctx. A request
// crosses up to a dozen hops (wire, switch, stack, core queue, engine
// batch, return wire); a closure per hop would cost every simulated
// request about eleven heap objects. Instead each in-flight request
// owns one pooled record holding its state between hops. Timed hops are
// engine handlers that are the record under another type ((*cpuRx)(r)
// and friends, the idiom of sim's linkHead), and job, engine and wire
// completions resume the record through its two callbacks, bound once
// when the record is built. Client packets and records come from
// per-run free lists, so a warm run allocates nothing per request.
//
// A net-served request steps through its run's phases (see
// PipelineSpec): point runs, Table 4 and fleet replays execute the
// single phase PipelineFromConfig builds, pipelines their whole chain.
// The record carries the phase index, the phase's input size and
// whether the fallback policy spilled the phase to a host core. A
// routed replay's request takes one of two routes instead (routed.go).

// request is one in-flight request.
type request struct {
	ctx *runctx
	seq uint64
	// size is the wire payload: the ledger and the meter count it.
	size   int
	sentAt sim.Time
	root   obs.SpanID
	// svc is the core service time drawn when a core phase began.
	svc sim.Duration
	// mark is when the stage in progress began: RX done, enqueue,
	// staging start, TX, command or data departure.
	mark sim.Time
	// phase indexes the net-serve phase in progress; in is its input
	// payload after upstream transforms; spilled marks an engine phase
	// the fallback policy moved to a host core.
	phase   int
	in      int
	spilled bool
	// resp is the packet the request sends back (or, for storage, the
	// command and then the data block).
	resp nic.Packet
	// hop names the step that the next job completion or wire arrival
	// finishes.
	hop hop
	// jobDone and arrived are onJob and onArrival bound to this record
	// once, when it is built.
	jobDone func(start, end sim.Time)
	arrived func(*nic.Packet)
	// next links the run's free list.
	next *request
}

// hop is the request-path step a record is waiting to finish.
type hop uint8

const (
	// Network serving (the phase path) and switching.
	hopServed   hop = iota // a core (or spilled engine) phase's service
	hopStaged              // staging-core work ahead of an engine phase
	hopEngined             // the engine's batch retired
	hopReturned            // the response reached the client
	hopSlowPath            // the offload slow path's software service
	// Closed-loop local operations (runLocal).
	hopLocalServed  // the ISA-path operation on a core
	hopLocalStaged  // command staging ahead of the engine
	hopLocalEngined // the engine retired the operation
	// Block I/O (runStorage).
	hopPosted    // the initiator core posted the command
	hopCommanded // the command reached the target
	hopStored    // the data block reached the initiator
	hopCompleted // the initiator processed the completion
	// Routed replays (routed.go).
	hopRouteHost     // host-core service
	hopRouteStaged   // staging-core work ahead of REM
	hopRouteEngined  // REM retired the task
	hopRouteReturned // the failover response reached the client
)

// newRequest takes a record off the run's free list, building one when
// the list is dry.
//
//snicvet:hotpath
func (ctx *runctx) newRequest() *request {
	r := ctx.freeReqs
	if r == nil {
		//snicvet:ignore hotpath -- free-list growth up to the run's peak requests in flight; steady state reuses completed records
		r = &request{ctx: ctx}
		r.jobDone = r.onJob
		r.arrived = r.onArrival
		return r
	}
	ctx.freeReqs = r.next
	r.next = nil
	return r
}

// release returns a completed or dropped request's record to the free
// list.
//
//snicvet:hotpath
func (ctx *runctx) release(r *request) {
	r.next = ctx.freeReqs
	ctx.freeReqs = r
}

// newPacket takes a client packet off the run's free list and fills it
// for a request sent now.
//
//snicvet:hotpath
func (ctx *runctx) newPacket(seq uint64, size int, span obs.SpanID) *nic.Packet {
	var p *nic.Packet
	if n := len(ctx.freePkts); n > 0 {
		p = ctx.freePkts[n-1]
		ctx.freePkts[n-1] = nil
		ctx.freePkts = ctx.freePkts[:n-1]
	} else {
		//snicvet:ignore hotpath -- free-list growth up to the run's peak client packets in flight; sinks hand them back
		p = new(nic.Packet)
	}
	*p = nic.Packet{Seq: seq, Size: size, SentAt: ctx.tb.Eng.Now(), Span: uint32(span)}
	return p
}

// take moves an arrived client packet's request identity into a record
// and returns the packet to the client's free list.
//
//snicvet:hotpath
func (ctx *runctx) take(p *nic.Packet) *request {
	r := ctx.newRequest()
	r.seq, r.size, r.sentAt, r.root = p.Seq, p.Size, p.SentAt, obs.SpanID(p.Span)
	//snicvet:ignore hotpath -- amortized free-list growth; capacity tops out at the run's peak client packets in flight
	ctx.freePkts = append(ctx.freePkts, p)
	return r
}

// receive takes a record for a packet arriving at a sink and closes the
// request's ingress stage.
//
//snicvet:hotpath
func (ctx *runctx) receive(p *nic.Packet) *request {
	r := ctx.take(p)
	now := ctx.tb.Eng.Now()
	ctx.stage(r, spanIngress, r.sentAt, now)
	r.mark = now
	return r
}

// exec submits the request's next job to pool. A job shed at the pool's
// queue bound drops the request: a phase's or the offload slow path's
// own ledgers take the drop first.
//
//snicvet:hotpath
func (r *request) exec(pool *cpu.Pool, next hop, svc sim.Duration) {
	ctx := r.ctx
	r.hop = next
	if pool.ExecDuration(svc, r.jobDone) {
		return
	}
	switch next {
	case hopServed, hopStaged:
		ctx.tally[r.phase].Dropped++
		if ctx.phaseMarks != nil {
			//snicvet:ignore hotpath -- checked runs only (violation reports); a nil checker returns at once
			ctx.chk.PhaseDrop(ctx.phaseMarks[r.phase].ledger, r.seq, ctx.tb.Eng.Now())
		}
	case hopSlowPath:
		ctx.ctl.NoteDrop()
		//snicvet:ignore hotpath -- checked runs only (lazy ledgers, violation reports); a nil checker returns at once
		ctx.chk.FlowSlowDrop(r.seq, ctx.tb.Eng.Now())
	case hopRouteHost, hopRouteStaged:
		if ctx.fo != nil {
			// Only this copy ends: its request's timeout guard retries.
			ctx.release(r)
			return
		}
		ctx.flight(r.seq).done = true
		ctx.dropped++
	}
	ctx.noteDrop(r.seq, r.size)
	ctx.release(r)
}

// queued records the request's wait for a core that started its job at
// start, if it waited at all.
//
//snicvet:hotpath
func (r *request) queued(start sim.Time) {
	if start > r.mark {
		r.ctx.stage(r, spanQueue, r.mark, start)
	}
}

// respond sends a response of size bytes back toward the client.
//
//snicvet:hotpath
func (r *request) respond(size int) {
	r.mark = r.ctx.tb.Eng.Now()
	r.resp = nic.Packet{Seq: r.seq, Size: size, SentAt: r.sentAt}
	r.hop = hopReturned
	r.ctx.tb.Wire.SendToClient(&r.resp, r.arrived)
}

// finish completes the request: its root span closes, the ledger and
// the latency histogram take it, and its record goes back to the free
// list.
//
//snicvet:hotpath
func (r *request) finish() {
	ctx := r.ctx
	now := ctx.tb.Eng.Now()
	ctx.closeRequest(r.root)
	ctx.noteComplete(r.seq, r.size)
	ctx.record(now.Sub(r.sentAt), r.size)
	ctx.release(r)
}

// onJob resumes the request when the core job or engine task of its
// current hop retires; start and end bound that job's service.
//
//snicvet:hotpath
func (r *request) onJob(start, end sim.Time) {
	ctx := r.ctx
	switch r.hop {
	case hopServed:
		r.queued(start)
		ctx.stage(r, spanService, start, end)
		ctx.endPhase(r, start, end)
	case hopStaged:
		r.queued(start)
		ctx.stage(r, spanStaging, start, end)
		// The phase span runs from staging start to engine retirement.
		r.mark = start
		r.hop = hopEngined
		ph := &ctx.ps.Phases[r.phase]
		ctx.engineSubmit(ph.Engine, ph.PKAAlgo, r.in, r.jobDone)
	case hopEngined:
		ctx.stage(r, spanEngine, start, end)
		ctx.endPhase(r, r.mark, end)
	case hopSlowPath:
		r.queued(start)
		ctx.stage(r, spanService, start, end)
		r.respond(r.size)
	case hopLocalServed:
		ctx.stage(r, spanService, start, end)
		r.finishLocal()
	case hopLocalStaged:
		ctx.stage(r, spanStaging, start, end)
		r.hop = hopLocalEngined
		ctx.engineSubmit(ctx.cfg.Engine, ctx.cfg.PKAAlgo, r.size, r.jobDone)
	case hopLocalEngined:
		ctx.stage(r, spanEngine, start, end)
		r.finishLocal()
	case hopPosted:
		ctx.stage(r, spanService, start, end)
		ctx.tb.Eng.AfterCall(ctx.ep.FixedDelay()+ctx.extraLatency(), (*ioCommand)(r), nil)
	case hopCompleted:
		r.finish()
	case hopRouteHost:
		ctx.stage(r, spanService, start, end)
		ctx.routeServed(r)
	case hopRouteStaged:
		ctx.stage(r, spanStaging, start, end)
		r.hop = hopRouteEngined
		//snicvet:ignore hotpath -- allocates only the typed error a crashed engine rejects the task with
		if ctx.tb.REM.Submit(r.size, r.jobDone) != nil {
			// Graceful degradation: a task staged into a crashed engine
			// re-serves on the host instead of being lost.
			ctx.snicServed--
			ctx.failedOver++
			ctx.serveHost(r)
		}
	case hopRouteEngined:
		ctx.stage(r, spanEngine, start, end)
		ctx.routeServed(r)
	default:
		panic("core: job completion on a request not waiting for one")
	}
}

// onArrival resumes the request when the packet of its current hop
// reaches the far end of the wire.
//
//snicvet:hotpath
func (r *request) onArrival(*nic.Packet) {
	ctx := r.ctx
	now := ctx.tb.Eng.Now()
	switch r.hop {
	case hopReturned:
		ctx.stage(r, spanReturn, r.mark, now)
		r.finish()
	case hopCommanded:
		ctx.stage(r, spanIngress, r.mark, now)
		r.mark = now
		ctx.tb.Eng.AfterCall(storageDeviceLat, (*ioDevice)(r), nil)
	case hopStored:
		ctx.stage(r, spanReturn, r.mark, now)
		// Completion interrupt/poll on the initiator.
		spec := ctx.tb.SpecFor(ctx.plat)
		r.exec(ctx.pool, hopCompleted, sim.Cycles(600/spec.IPC, spec.BaseHz))
	case hopRouteReturned:
		ctx.routeDone(r)
	default:
		panic("core: packet arrival on a request not waiting for one")
	}
}

// ---- The phase path ----
//
// The phase path replays the event structure and RNG-draw order of a
// net-serve run exactly: a core phase draws its service time when it
// begins, phase 0 then rides the inbound stack delay, and the TX delay is
// drawn when the last phase completes. A one-phase path is therefore a
// point run bit for bit; further phases chain where the response would
// have left.

// netSink starts a net-served request's first phase when its packet
// reaches the server.
type netSink runctx

// HandleEvent takes the request's record and begins phase 0.
//
//snicvet:hotpath
func (s *netSink) HandleEvent(arg any) {
	ctx := (*runctx)(s)
	r := ctx.receive(arg.(*nic.Packet))
	r.phase, r.in = 0, r.size
	ctx.startPhase(r)
}

// startPhase begins the request's current phase. A core phase queues on
// its pool (phase 0 after the inbound stack delay); an engine phase asks
// the fallback policy whether to spill to a host core, and otherwise
// queues for a staging core that feeds the engine (the DOCA path of
// §2.2). The staging cost includes the result pickup work (see
// stageTime), so completions ride a small fixed delay rather than
// re-entering the staging queue: a dropped RX must never be able to
// orphan a finished engine task.
//
//snicvet:hotpath
func (ctx *runctx) startPhase(r *request) {
	ph := &ctx.ps.Phases[r.phase]
	now := ctx.tb.Eng.Now()
	r.spilled = false
	if ph.isCPU() {
		r.svc = ctx.phaseSvc(r, ph)
		if r.phase == 0 {
			ctx.tb.Eng.AfterCall(ctx.ep.FixedDelay()+ctx.ps.FixedExtra, (*cpuRx)(r), nil)
			return
		}
		r.mark = now
		ctx.execPhase(r, ctx.tb.PoolFor(ph.platform()), hopServed, r.svc)
		return
	}
	r.mark = now
	if ctx.pol.Spill(ph, ctx.tb.backlog(ph.Engine), ph.queueCap()) {
		// Host software path: the phase's spill cost model on a host
		// core, then the request continues as if the engine had run.
		r.spilled = true
		ctx.execPhase(r, ctx.tb.HostPool, hopServed, ctx.phaseSvc(r, ph))
		return
	}
	svc := stageTime(&ctx.prof, ctx.tb.SNICSpec, r.phase == 0, r.in)
	ctx.execPhase(r, ctx.tb.StagingPool, hopStaged, ctx.jit.LogNormalDur(svc, 0.15))
}

// phaseMark is one pipeline phase's span name and label and its ledger
// handle, resolved once when the run is wired.
type phaseMark struct {
	name   string
	span   obs.SpanLabel
	ledger invariant.PhaseID
}

// markPhases resolves a pipeline run's phase marks: each phase's child
// span, phase/<name> on the request track, and its phase ledger.
func (ctx *runctx) markPhases() {
	ctx.phaseMarks = make([]phaseMark, len(ctx.ps.Phases))
	for i := range ctx.ps.Phases {
		name := ctx.ps.Phases[i].Name
		m := &ctx.phaseMarks[i]
		m.name = "phase/" + name
		m.span = ctx.rec.Intern(m.name)
		m.ledger = ctx.chk.Phase(name)
	}
}

// execPhase enters the request into its phase's ledger and submits the
// phase's job.
//
//snicvet:hotpath
func (ctx *runctx) execPhase(r *request, pool *cpu.Pool, next hop, svc sim.Duration) {
	if ctx.phaseMarks != nil {
		//snicvet:ignore hotpath -- checked runs only (dense ledger growth, violation reports); a nil checker returns at once
		ctx.chk.PhaseEnter(ctx.phaseMarks[r.phase].ledger, r.seq, ctx.tb.Eng.Now())
	}
	r.exec(pool, next, svc)
}

// cpuRx queues a request for a core once phase 0's inbound stack delay
// has passed.
type cpuRx request

// HandleEvent submits the phase's service job.
//
//snicvet:hotpath
func (h *cpuRx) HandleEvent(any) {
	r := (*request)(h)
	ctx := r.ctx
	enq := ctx.tb.Eng.Now()
	ctx.stage(r, spanStackRx, r.mark, enq)
	r.mark = enq
	ctx.execPhase(r, ctx.pool, hopServed, r.svc)
}

// endPhase closes the request's current phase, which ran from start to
// end, then begins the next phase or, after the last, sends the
// response: a small fixed engine-pickup delay after an engine, the TX
// stack delay after a core.
//
//snicvet:hotpath
func (ctx *runctx) endPhase(r *request, start, end sim.Time) {
	ph := &ctx.ps.Phases[r.phase]
	if m := ctx.phaseMarks; m != nil {
		if ctx.childSpans {
			ctx.child(r, m[r.phase].span, m[r.phase].name, start, end)
		}
		//snicvet:ignore hotpath -- checked runs only (violation reports); a nil checker returns at once
		ctx.chk.PhaseExit(m[r.phase].ledger, r.seq, end)
	}
	if r.spilled {
		ctx.tally[r.phase].Spilled++
	} else {
		ctx.tally[r.phase].Served++
	}
	r.in = ph.outSize(r.in)
	if r.phase++; r.phase < len(ctx.ps.Phases) {
		ctx.startPhase(r)
		return
	}
	if r.hop == hopEngined {
		ctx.tb.Eng.AfterCall(200*sim.Nanosecond, (*reqTx)(r), nil)
	} else {
		ctx.tb.Eng.AfterCall(ctx.ep.FixedDelay(), (*reqTx)(r), nil)
	}
}

// reqTx sends a served request's response toward the client.
type reqTx request

// HandleEvent puts the response on the wire.
//
//snicvet:hotpath
func (h *reqTx) HandleEvent(any) { (*request)(h).respond(h.ctx.ps.RespSize) }

// phaseSvc draws the service time of the request's current phase: the
// model's phaseTime (see model.go) under the phase's log-normal jitter.
//
//snicvet:hotpath
func (ctx *runctx) phaseSvc(r *request, ph *PhaseSpec) sim.Duration {
	sigma := ph.Sigma
	if sigma <= 0 {
		sigma = 0.20
	}
	return ctx.jit.LogNormalDur(phaseTime(ctx.tb, &ctx.prof, ctx.ps, r.phase, r.in, r.spilled), sigma)
}

// engineSubmit dispatches one task of size bytes to an engine; done
// receives the engine-side service window. No fault plan runs through
// this path, so a rejection can only be a wiring bug.
func (ctx *runctx) engineSubmit(e EngineKind, algo accel.PKAAlgo, size int, done func(start, end sim.Time)) {
	var err error
	switch e {
	case EngineREM:
		err = ctx.tb.REM.Submit(size, done)
	case EngineDeflate:
		err = ctx.tb.Deflate.Submit(size, done)
	case EnginePKABulk:
		err = ctx.tb.PKA.SubmitBulk(algo, size, done)
	case EnginePKAOp:
		err = ctx.tb.PKA.SubmitOp(algo, done)
	default:
		panic(fmt.Sprintf("core: no engine binding %q", e))
	}
	if err != nil {
		panic(err)
	}
}

// finishEngineUtil snapshots the busiest engine the run's phases bind
// into the power signal.
func (ctx *runctx) finishEngineUtil() {
	if ctx.ps == nil {
		return
	}
	var u float64
	seen := false
	for i := range ctx.ps.Phases {
		ph := &ctx.ps.Phases[i]
		if ph.Resource != ResEngine {
			continue
		}
		if eu := ctx.tb.engineUtilization(ph.Engine); !seen || eu > u {
			u, seen = eu, true
		}
	}
	if seen {
		ctx.tb.SetEngineUtil(u)
	}
}
