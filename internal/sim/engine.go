package sim

import "fmt"

// Engine is a single-threaded discrete-event simulation kernel.
//
// Events are closures scheduled at absolute virtual times; Run pops them in
// timestamp order (FIFO among equal timestamps, by insertion sequence) and
// executes them. Event handlers may schedule further events. The engine is
// not safe for concurrent use: determinism is the whole point, and all
// model code runs on the event loop.
type Engine struct {
	now   Time
	queue eventHeap
	// seq numbers scheduled events in submission order. An event's seq
	// breaks timestamp ties and doubles as its EventID.
	seq uint64
	// cancelled holds the IDs of scheduled events that were cancelled
	// before firing. Entries are dropped lazily when popped.
	cancelled map[uint64]struct{}
	executed  uint64
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
	// heapPeak is the queue's high-water mark; cancelSweeps counts eager
	// sweeps of cancelled entries. Both feed Profile.
	heapPeak     int
	cancelSweeps uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{cancelled: make(map[uint64]struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far. Useful for progress
// accounting and for asserting that a model actually did work.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting to fire, including
// cancelled events that have not yet been lazily discarded. A link's
// frames count once each: only its head frame sits in the event queue,
// and the frames behind it are held by the link, not by the queue.
func (e *Engine) Pending() int { return len(e.queue) + e.held }

// LivePending reports how many pending events will actually fire —
// Pending minus cancelled-but-not-yet-discarded ghosts. Frames held
// behind a link's head cannot be cancelled, so they are all live. It
// scans the queue (O(queue)), so it is for progress and profile
// reporting, not per-event hot paths; Pending stays the O(1) raw count.
func (e *Engine) LivePending() int {
	if len(e.cancelled) == 0 {
		return e.Pending()
	}
	n := e.held
	for _, ev := range e.queue {
		if _, dead := e.cancelled[ev.seq]; !dead {
			n++
		}
	}
	return n
}

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
	// CancelSweeps counts eager sweeps of cancelled entries.
	CancelSweeps uint64
	// Pending and LivePending snapshot the queue as Pending/LivePending
	// would report it.
	Pending, LivePending int
}

// Profile snapshots the engine's self-profiling counters.
func (e *Engine) Profile() Profile {
	return Profile{
		Executed:     e.executed,
		HeapPeak:     e.heapPeak,
		CancelSweeps: e.cancelSweeps,
		Pending:      e.Pending(),
		LivePending:  e.LivePending(),
	}
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID uint64

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
	// TryAtCall/AtCall/AfterCall, unmodified.
	HandleEvent(arg any)
}

// TryAt schedules fn to run at absolute virtual time t, returning a
// *PastEventError instead of panicking when t is in the past. An event
// exactly at the current time is valid (it runs this instant, after
// already-queued events at the same timestamp). Speculative schedulers
// that compute timestamps from untrusted inputs use this; model code
// with timestamps it believes in should use At.
//
//snicvet:hotpath
func (e *Engine) TryAt(t Time, fn func()) (EventID, error) {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	return e.schedule(t, fn, nil, nil)
}

// TryAtCall is TryAt for a handler/arg pair instead of a closure: the
// allocation-free form hot paths use.
//
//snicvet:hotpath
func (e *Engine) TryAtCall(t Time, h EventHandler, arg any) (EventID, error) {
	if h == nil {
		panic("sim: scheduling nil event handler")
	}
	return e.schedule(t, nil, h, arg)
}

// schedule is the shared scheduling core behind TryAt and TryAtCall.
//
//snicvet:hotpath
func (e *Engine) schedule(t Time, fn func(), h EventHandler, arg any) (EventID, error) {
	if t < e.now {
		//snicvet:ignore hotpath -- error path: a past timestamp aborts the schedule, not the event budget
		return 0, &PastEventError{At: t, Now: e.now}
	}
	seq := e.reserve()
	e.push(e.newEvent(t, seq, fn, h, arg))
	return EventID(seq), nil
}

// reserve claims the sequence number (and so the EventID) that an event
// scheduled right now would get, without queuing anything. A Link
// reserves each frame's slot at Send time and queues it with
// scheduleReserved only when the frame reaches the head of the link, so
// its frames fire in exactly the order per-frame scheduling would have
// given them, ties included.
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
	e.push(e.newEvent(t, seq, nil, h, nil))
}

// push adds a record to the queue and tracks its high-water mark.
//
//snicvet:hotpath
func (e *Engine) push(ev *event) {
	e.queue.push(ev)
	if len(e.queue) > e.heapPeak {
		e.heapPeak = len(e.queue)
	}
}

// newEvent takes a record off the free list, or allocates when the pool
// is dry (cold start, or the heap growing past its previous peak).
//
//snicvet:hotpath
func (e *Engine) newEvent(at Time, seq uint64, fn func(), h EventHandler, arg any) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq = at, seq
		ev.fn, ev.h, ev.arg = fn, h, arg
		return ev
	}
	//snicvet:ignore hotpath -- cold start or heap growth past its previous peak; steady state reuses the free list
	return &event{at: at, seq: seq, fn: fn, h: h, arg: arg}
}

// recycle returns a popped event record to the free list. The closure,
// handler and argument references are cleared so recycled records never
// pin model state.
//
//snicvet:hotpath
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.h = nil
	ev.arg = nil
	//snicvet:ignore hotpath -- reuses capacity once the free list reaches the heap's high-water mark
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics with a typed *PastEventError: it always indicates a model bug and
// silently clamping would hide causality violations.
//
//snicvet:hotpath
func (e *Engine) At(t Time, fn func()) EventID {
	id, err := e.TryAt(t, fn)
	if err != nil {
		panic(err)
	}
	return id
}

// AtCall is At for a handler/arg pair: the allocation-free form.
//
//snicvet:hotpath
func (e *Engine) AtCall(t Time, h EventHandler, arg any) EventID {
	id, err := e.TryAtCall(t, h, arg)
	if err != nil {
		panic(err)
	}
	return id
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

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op; the common use is
// disarming timeout guards.
//
// Cancelled entries are normally discarded lazily when popped, but a
// cancel-heavy workload (timeout guards disarmed on every completion over
// a long fault run) would grow the cancelled set without bound: IDs of
// already-fired events are never popped again. When the set outgrows the
// pending events, Cancel sweeps both — dead entries leave the heap and
// the set is reset — so memory stays proportional to live events.
func (e *Engine) Cancel(id EventID) {
	e.cancelled[uint64(id)] = struct{}{}
	if len(e.cancelled) > cancelSweepFloor && len(e.cancelled) > e.Pending() {
		e.sweepCancelled()
	}
}

// cancelSweepFloor keeps tiny simulations from sweeping on every cancel.
const cancelSweepFloor = 64

// sweepCancelled drops cancelled events from the queue eagerly and resets
// the cancelled set. Event IDs are never reused, so forgetting IDs of
// events that already fired is safe. Re-heapifying cannot perturb pop
// order: (at, seq) is a total order, so any valid heap yields the same
// sequence.
func (e *Engine) sweepCancelled() {
	kept := e.queue[:0]
	for _, ev := range e.queue {
		if _, dead := e.cancelled[ev.seq]; !dead {
			kept = append(kept, ev)
		} else {
			e.recycle(ev)
		}
	}
	for i := len(kept); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = kept
	e.queue.init()
	e.cancelled = make(map[uint64]struct{})
	e.cancelSweeps++
}

// CancelledPending reports how many cancelled-but-not-yet-discarded event
// IDs are being tracked. Exposed for leak regression tests.
func (e *Engine) CancelledPending() int { return len(e.cancelled) }

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
//snicvet:hotpath
func (e *Engine) stepUntil(deadline Time) bool {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		ev := e.queue.pop()
		if _, dead := e.cancelled[ev.seq]; dead {
			delete(e.cancelled, ev.seq)
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.executed++
		fn, h, arg := ev.fn, ev.h, ev.arg
		// Recycled before firing so events the handler schedules reuse
		// this record immediately.
		e.recycle(ev)
		if fn != nil {
			fn()
		} else {
			h.HandleEvent(arg)
		}
		return true
	}
	return false
}

// Run executes events until the queue drains — or, when parasitic
// tickers are armed, until only ticker events remain. Stopping before a
// lone tick pops matters: popping would advance the clock past the last
// real event, diluting every elapsed-time statistic (utilization, and
// through it the power model) purely because telemetry was on.
func (e *Engine) Run() {
	for {
		if e.tickerPending > 0 && len(e.cancelled) > 0 &&
			e.Pending()-len(e.cancelled) <= e.tickerPending {
			// Cancelled ghosts may be masking the only-tickers condition;
			// sweep so the count below reflects live events.
			e.sweepCancelled()
		}
		if e.Pending() <= e.tickerPending {
			return
		}
		if !e.Step() {
			return
		}
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

// event is a queue entry. seq breaks timestamp ties so that events
// scheduled earlier run earlier, which keeps FIFO semantics for models that
// schedule several events "now"; it is also the event's EventID. Exactly
// one of fn and h is set: fn for closure events, h (with its arg) for
// handler events.
type event struct {
	at  Time
	seq uint64
	fn  func()
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

// down fills the hole at i with ev, sifting it toward the leaves.
//
//snicvet:hotpath
func (h eventHeap) down(i int, ev *event) {
	n := len(h)
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

// init restores the heap order over arbitrary contents.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
}
