package sim

import (
	"fmt"
	"math/bits"
)

// Engine is a single-threaded discrete-event simulation kernel.
//
// Events are scheduled at absolute virtual times, either as an
// EventHandler with its argument (AtCall/AfterCall, the allocation-free
// form every per-request path uses) or as a closure (At/After). Run fires
// them in timestamp order (FIFO among equal timestamps, by insertion
// sequence). Events may schedule further events. The engine is not safe
// for concurrent use: determinism is the whole point, and all model code
// runs on the event loop.
type Engine struct {
	now   Time
	queue eventHeap
	// hole is 1 while queue[0] is the empty slot a fired event left: the
	// pop is deferred so that the first event its handler schedules takes
	// the slot with one sift down, where a pop and a push would sift
	// twice. If the handler schedules nothing, the next step finishes the
	// pop (settle). The stale record in the slot is already on the free
	// list and nothing reads it.
	hole int
	// seq numbers scheduled events in submission order. An event's seq
	// breaks timestamp ties, and with its record forms its EventID.
	seq uint64
	// ghosts counts cancelled records still in the queue. A cancelled
	// record stays where it is, with no handler, until it reaches the
	// root and is discarded unfired.
	ghosts   int
	executed uint64
	// held counts link frames waiting behind their link's head frame.
	// They are pending events whose slots were reserved at Send time, but
	// the links hold them, not the queue (see Link).
	held int
	// tickerPending counts queued Ticker events so a firing ticker can
	// tell whether anything besides tickers is left (see Ticker).
	tickerPending int
	// free recycles fired event records so a steady-state run allocates
	// no events after its heap reaches peak depth (telemetry-heavy runs
	// schedule one event per sample on top of the model's own).
	free []*event
	// heapPeak is the queue's high-water mark, ghosts included; it feeds
	// Profile.
	heapPeak int
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far. Useful for progress
// accounting and for asserting that a model actually did work.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting to fire. Cancelled events
// do not count. A link's frames count once each: only its head frame
// sits in the event queue, and the frames behind it are held by the
// link, not by the queue.
func (e *Engine) Pending() int { return len(e.queue) - e.hole + e.held - e.ghosts }

// Profile is a snapshot of the engine's self-profiling counters: how
// much work the scheduler did and how deep its structures got. All
// values are deterministic functions of the model, never of wall time.
type Profile struct {
	// Executed is the number of events fired so far.
	Executed uint64
	// HeapPeak is the event queue's high-water mark. Frames held behind
	// a link's head are not in the queue, so a saturated link adds one
	// entry here however deep its backlog grows.
	HeapPeak int
	// Pending snapshots the queue as Pending would report it.
	Pending int
}

// Profile snapshots the engine's self-profiling counters.
func (e *Engine) Profile() Profile {
	return Profile{Executed: e.executed, HeapPeak: e.heapPeak, Pending: e.Pending()}
}

// EventID identifies a scheduled event so it can be cancelled: the
// event's pooled record and the seq it was queued under. The zero
// EventID identifies no event.
type EventID struct {
	ev  *event
	seq uint64
}

// PastEventError reports an attempt to schedule an event before the
// current virtual time — always a model bug, never a runtime condition
// to clamp away.
type PastEventError struct {
	// At is the requested timestamp; Now is the clock it was behind.
	At, Now Time
}

// Error implements error.
func (e *PastEventError) Error() string {
	return fmt.Sprintf("sim: scheduling event at %v before now %v", e.At, e.Now)
}

// EventHandler is the allocation-free alternative to closure events.
// The engine stores the (handler, arg) pair in the pooled event record
// and invokes HandleEvent(arg) at fire time. A pointer receiver and a
// pointer (or nil) arg convert to their interface words without
// allocating, which is what keeps steady-state scheduling at zero
// allocations per event — a closure, by contrast, is a fresh heap
// object per schedule.
type EventHandler interface {
	// HandleEvent runs the event. arg is whatever was passed to
	// AtCall/AfterCall, unmodified.
	HandleEvent(arg any)
}

// schedule queues h(arg) at t under the next sequence number. A past t
// panics with a typed *PastEventError.
//
//snicvet:hotpath
func (e *Engine) schedule(t Time, h EventHandler, arg any) EventID {
	if t < e.now {
		//snicvet:ignore hotpath -- error path: a past timestamp is a model bug that aborts the run
		panic(&PastEventError{At: t, Now: e.now})
	}
	seq := e.reserve()
	ev := e.newEvent(t, seq, h, arg)
	e.push(ev)
	return EventID{ev, seq}
}

// reserve claims the sequence number that an event scheduled right now
// would get, without queuing anything. A Link reserves each frame's slot
// at Send time and queues it with scheduleReserved only when the frame
// reaches the head of the link, so its frames fire in exactly the order
// per-frame scheduling would have given them, ties included.
//
//snicvet:hotpath
func (e *Engine) reserve() uint64 {
	e.seq++
	return e.seq
}

// scheduleReserved queues a handler event at t under a sequence number
// taken earlier by reserve. t must not be before now.
//
//snicvet:hotpath
func (e *Engine) scheduleReserved(t Time, seq uint64, h EventHandler) {
	e.push(e.newEvent(t, seq, h, nil))
}

// push adds a record to the queue and tracks its high-water mark. The
// first record pushed after an event fires takes that event's empty root
// slot instead; the queue is then exactly as long as it was before the
// event fired, so the high-water mark cannot move.
//
//snicvet:hotpath
func (e *Engine) push(ev *event) {
	if e.hole != 0 {
		e.hole = 0
		e.queue.down(0, ev)
		return
	}
	e.queue.push(ev)
	if len(e.queue) > e.heapPeak {
		e.heapPeak = len(e.queue)
	}
}

// newEvent takes a record off the free list, or allocates when the pool
// is dry (cold start, or the heap growing past its previous peak).
//
//snicvet:hotpath
func (e *Engine) newEvent(at Time, seq uint64, h EventHandler, arg any) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.h, ev.arg = at, seq, h, arg
		return ev
	}
	//snicvet:ignore hotpath -- cold start or heap growth past its previous peak; steady state reuses the free list
	return &event{at: at, seq: seq, h: h, arg: arg}
}

// recycle returns a popped event record to the free list. The handler
// and argument references are cleared so recycled records never pin
// model state, and so that Cancel finds no handler to clear.
//
//snicvet:hotpath
func (e *Engine) recycle(ev *event) {
	ev.h = nil
	ev.arg = nil
	//snicvet:ignore hotpath -- reuses capacity once the free list reaches the heap's high-water mark
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics with a typed *PastEventError: it always indicates a model bug and
// silently clamping would hide causality violations. An event exactly at
// the current time is valid: it runs this instant, after already-queued
// events at the same timestamp.
//
//snicvet:hotpath
func (e *Engine) At(t Time, fn func()) EventID {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	return e.schedule(t, deliverFunc(fn), nil)
}

// AtCall is At for a handler/arg pair: the allocation-free form.
//
//snicvet:hotpath
func (e *Engine) AtCall(t Time, h EventHandler, arg any) EventID {
	if h == nil {
		panic("sim: scheduling nil event handler")
	}
	return e.schedule(t, h, arg)
}

// After schedules fn to run d after the current time. A negative delay
// panics with a typed *PastEventError, like At.
//
//snicvet:hotpath
func (e *Engine) After(d Duration, fn func()) EventID {
	return e.At(e.now.Add(d), fn)
}

// AfterCall is After for a handler/arg pair: the allocation-free form.
//
//snicvet:hotpath
func (e *Engine) AfterCall(d Duration, h EventHandler, arg any) EventID {
	return e.AtCall(e.now.Add(d), h, arg)
}

// Cancel prevents a scheduled event from firing; the common use is
// disarming timeout guards. It clears the event's handler, and the
// record stays queued as a ghost until it reaches the root and is
// discarded unfired. Cancelling the zero EventID, an event that already
// fired or was already cancelled is a no-op: a fired record loses its
// handler before it runs, and a record reused by a later event carries
// that event's seq, not the ID's.
//
//snicvet:hotpath
func (e *Engine) Cancel(id EventID) {
	if ev := id.ev; ev != nil && ev.seq == id.seq && ev.h != nil {
		ev.h, ev.arg = nil, nil
		e.ghosts++
	}
}

// Step executes the single earliest pending event. It reports false when
// the queue is empty.
//
//snicvet:hotpath
func (e *Engine) Step() bool { return e.stepUntil(maxTime) }

// maxTime is the latest representable virtual time: Step's deadline.
const maxTime = Time(1<<63 - 1)

// stepUntil executes the earliest live event if it is due by deadline,
// discarding cancelled ghosts ahead of it, and reports whether one fired.
// A ghost never lets a later live event slip past the deadline.
//
// The fired event stays at the root as the queue's hole (see Engine.hole)
// until its handler schedules an event or the next step settles it.
//
//snicvet:hotpath
func (e *Engine) stepUntil(deadline Time) bool {
	e.settle()
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		ev := e.queue[0]
		h, arg := ev.h, ev.arg
		if h == nil {
			e.ghosts--
			e.queue.pop()
			e.recycle(ev)
			continue
		}
		e.hole = 1
		e.now = ev.at
		e.executed++
		// Recycled before firing so events the handler schedules reuse
		// this record immediately.
		e.recycle(ev)
		h.HandleEvent(arg)
		return true
	}
	return false
}

// settle finishes a deferred pop: the hole at the root takes the
// queue's last record, as pop would have done when the event fired.
//
//snicvet:hotpath
func (e *Engine) settle() {
	if e.hole != 0 {
		e.hole = 0
		e.queue.pop()
	}
}

// Run executes events until none is pending — or, when parasitic tickers
// are armed, until only ticker events remain. Stopping before a lone
// tick pops matters: popping would advance the clock past the last real
// event, diluting every elapsed-time statistic (utilization, and through
// it the power model) purely because telemetry was on. Cancelled ghosts
// left in the queue stay there; they never move the clock.
func (e *Engine) Run() {
	for e.Pending() > e.tickerPending && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled after the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for e.stepUntil(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// event is a queue entry: the handler and argument it fires, nil for a
// fired or cancelled record. seq breaks timestamp ties so that events
// scheduled earlier run earlier, which keeps FIFO semantics for models
// that schedule several events "now".
type event struct {
	at  Time
	seq uint64
	h   EventHandler
	arg any
}

// before reports whether a fires ahead of b: earlier time first, then
// earlier submission. seq is unique, so this is a total order and every
// valid heap pops the same sequence.
//
//snicvet:hotpath
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// earlier is before as 0 or 1, without a branch: the borrow out of the
// 128-bit subtraction (a.at, a.seq) - (b.at, b.seq). Queued times are
// never before the clock, which starts at zero, so they order as
// unsigned words.
//
//snicvet:hotpath
func earlier(a, b *event) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// eventHeap is a binary min-heap of pooled event records under before.
// Compares are direct calls rather than interface dispatch, and sifts
// move a hole instead of swapping pairs.
type eventHeap []*event

//snicvet:hotpath
func (h *eventHeap) push(ev *event) {
	//snicvet:ignore hotpath -- reuses capacity once the heap reaches its high-water mark
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest record. The heap must not be
// empty.
//
//snicvet:hotpath
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		h.down(0, last)
	}
	return top
}

// up sifts the record at i toward the root.
//
//snicvet:hotpath
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// branchFreeSlots bounds the heap slots whose children down compares
// without a branch. The experiments' queues fit in them (their heap
// peaks run from 64 to 190). Records that high in the heap stay in
// cache, so a mispredicted child choice costs more than the compare.
// Deeper down the records miss cache, and a predicted branch lets the
// loads of the next level overlap.
const branchFreeSlots = 256

// down fills the hole at i with ev, sifting it toward the leaves.
//
//snicvet:hotpath
func (h eventHeap) down(i int, ev *event) {
	n := len(h)
	top := min(n, branchFreeSlots)
	for {
		c := 2*i + 1
		if c+1 >= top {
			break
		}
		c += earlier(h[c+1], h[c])
		if !h[c].before(ev) {
			h[i] = ev
			return
		}
		h[i] = h[c]
		i = c
	}
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}
