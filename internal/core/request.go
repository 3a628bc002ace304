package core

import (
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The per-request record of the point and replay drivers. A request
// crosses up to a dozen hops (wire, switch, stack, core queue, engine
// batch, return wire); a closure per hop would cost every simulated
// request about eleven heap objects. Instead each in-flight request
// owns one pooled record holding its state between hops. Timed hops are
// engine handlers that are the record under another type ((*cpuRx)(r)
// and friends, the idiom of sim's linkHead), and job, engine and wire
// completions resume the record through its two callbacks, bound once
// when the record is built. Client packets and records come from
// per-run free lists, so a warm run allocates nothing per request.

// request is one in-flight request.
type request struct {
	ctx    *runctx
	seq    uint64
	size   int
	sentAt sim.Time
	root   obs.SpanID
	// svc is the core service time drawn when the request reached its
	// sink.
	svc sim.Duration
	// mark is when the stage in progress began: RX done, enqueue, TX,
	// command or data departure.
	mark sim.Time
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
	// Network serving (runNetServe and the replays) and switching.
	hopServed   hop = iota // run-to-completion service on a core
	hopStaged              // staging-core work ahead of the engine
	hopEngined             // the engine's batch retired
	hopReturned            // the response reached the client
	// Closed-loop local operations (runLocal).
	hopLocalServed  // the ISA-path operation on a core
	hopLocalStaged  // command staging ahead of the engine
	hopLocalEngined // the engine retired the operation
	// Block I/O (runStorage).
	hopPosted    // the initiator core posted the command
	hopCommanded // the command reached the target
	hopStored    // the data block reached the initiator
	hopCompleted // the initiator processed the completion
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

// exec submits the request's next job to the run's pool; a job shed at
// the pool's queue bound drops the request.
//
//snicvet:hotpath
func (r *request) exec(next hop, svc sim.Duration) {
	r.hop = next
	if !r.ctx.pool.ExecDuration(svc, r.jobDone) {
		r.ctx.noteDrop(r.seq, r.size)
		r.ctx.release(r)
	}
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
	eng := ctx.tb.Eng
	switch r.hop {
	case hopServed:
		if r.root != 0 && start > r.mark {
			ctx.stage(r.root, spanQueue, r.mark, start)
		}
		ctx.stage(r.root, spanService, start, end)
		eng.AfterCall(ctx.ep.FixedDelay(), (*reqTx)(r), nil)
	case hopStaged:
		if r.root != 0 && start > r.mark {
			ctx.stage(r.root, spanQueue, r.mark, start)
		}
		ctx.stage(r.root, spanStaging, start, end)
		r.hop = hopEngined
		ctx.engineSubmit(r.size, r.jobDone)
	case hopEngined:
		ctx.stage(r.root, spanEngine, start, end)
		eng.AfterCall(200*sim.Nanosecond, (*reqTx)(r), nil)
	case hopLocalServed:
		ctx.stage(r.root, spanService, start, end)
		r.finishLocal()
	case hopLocalStaged:
		ctx.stage(r.root, spanStaging, start, end)
		r.hop = hopLocalEngined
		ctx.engineSubmit(r.size, r.jobDone)
	case hopLocalEngined:
		ctx.stage(r.root, spanEngine, start, end)
		r.finishLocal()
	case hopPosted:
		ctx.stage(r.root, spanService, start, end)
		eng.AfterCall(ctx.ep.FixedDelay()+ctx.extraLatency(), (*ioCommand)(r), nil)
	case hopCompleted:
		r.finish()
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
		ctx.stage(r.root, spanReturn, r.mark, now)
		r.finish()
	case hopCommanded:
		ctx.stage(r.root, spanIngress, r.mark, now)
		r.mark = now
		ctx.tb.Eng.AfterCall(storageDeviceLat, (*ioDevice)(r), nil)
	case hopStored:
		ctx.stage(r.root, spanReturn, r.mark, now)
		// Completion interrupt/poll on the initiator.
		spec := ctx.tb.SpecFor(ctx.plat)
		r.exec(hopCompleted, sim.Cycles(600/spec.IPC, spec.BaseHz))
	default:
		panic("core: packet arrival on a request not waiting for one")
	}
}
