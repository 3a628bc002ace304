package sim

// Observability hooks for the simulation kernel.
//
// The kernel stays telemetry-agnostic: resources accept an optional
// observer interface and invoke it at state transitions. Observers must
// not mutate model state — every callback fires while the event loop is
// mid-transition, and determinism depends on observers being pure
// recorders. With no observer installed the hooks cost one nil check.

// StationObserver receives per-job lifecycle notifications from one
// Station (or a BatchStation's internal engine). An observer is bound
// to its resource when a run is wired, so callbacks carry no name and
// an observer that keeps per-resource state reaches it without a
// lookup.
type StationObserver interface {
	// JobQueued fires when a job enters the wait queue (not when it
	// starts service immediately). queueLen is the length including j.
	JobQueued(now Time, queueLen int)
	// JobStarted fires when a job begins service. waited is the time
	// spent in the wait queue (zero for jobs served on arrival).
	JobStarted(now Time, waited Duration)
	// JobFinished fires when a job completes service.
	JobFinished(start, end Time)
	// JobDropped fires when a job is rejected by a full queue.
	JobDropped(now Time)
}

// LinkObserver receives per-frame notifications from one Link.
type LinkObserver interface {
	// FrameSent fires at submission time: start/done bound the
	// serialization slot the frame occupies (possibly in the future,
	// behind queued frames); lost marks frames sent while the link was
	// down.
	FrameSent(size int, start, done Time, lost bool)
}

// BatchObserver receives batch-assembly notifications from one
// BatchStation.
type BatchObserver interface {
	// BatchFlushed fires when a batch is handed to the engine. waited
	// is the assembly delay since the batch's first task arrived.
	BatchFlushed(tasks int, waited Duration, now Time)
}

// Ticker schedules fn at a fixed virtual-time period, starting one
// period from now. The ticker is parasitic: it keeps firing only while
// non-ticker events remain queued, so it never extends a simulation's
// natural horizon. Telemetry samplers use this to poll gauges without
// perturbing the model — fn must not schedule model events.
//
// Multiple tickers coexist: the engine counts pending ticker events so
// that tickers do not keep each other alive after the model drains.
func (e *Engine) Ticker(period Duration, fn func()) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if fn == nil {
		panic("sim: nil ticker callback")
	}
	var tick func()
	tick = func() {
		e.tickerPending--
		if e.Pending() <= e.tickerPending {
			// Only other tickers remain: stop silently so the chain of
			// tickers collapses and Run exits.
			return
		}
		fn()
		e.tickerPending++
		e.After(period, tick)
	}
	e.tickerPending++
	e.After(period, tick)
}
