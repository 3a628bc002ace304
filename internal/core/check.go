package core

import (
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Checked-execution wiring. A Runner with Checks set gives every
// simulation a per-run invariant.Checker validating the simulator's
// physical laws online: request and byte conservation through the
// drivers' ledgers, queue sanity and clock monotonicity through the same
// sim observer hooks telemetry uses, and span causality at end of run.
// With Checks off every hook below degenerates to the telemetry nil
// check, so the unchecked hot path is unchanged.

// newChecker returns a fail-fast checker for one run, or nil when
// checked mode is off.
func (r *Runner) newChecker(label string) *invariant.Checker {
	if !r.Checks {
		return nil
	}
	return invariant.New(label)
}

// observer is what an instrumented resource's single observer slot
// takes: the recorder, the checker, or a fan-out to both.
type observer interface {
	sim.StationObserver
	sim.LinkObserver
	sim.BatchObserver
}

// observe returns the observer for a run's recorder and checker: the
// bare recorder or checker when only one is on (never a nil wrapped in
// an interface, so the resources' "observer == nil" fast path stays
// honest), a fan-out when both are, and nil when neither is.
func observe(rec *obs.Recorder, chk *invariant.Checker) observer {
	switch {
	case rec != nil && chk != nil:
		return fanOut{rec, chk}
	case rec != nil:
		return rec
	case chk != nil:
		return chk
	}
	return nil
}

// fanOut forwards every callback to a, then b.
type fanOut struct{ a, b observer }

func (f fanOut) JobQueued(station string, now sim.Time, queueLen int) {
	f.a.JobQueued(station, now, queueLen)
	f.b.JobQueued(station, now, queueLen)
}

func (f fanOut) JobStarted(station string, now sim.Time, waited sim.Duration) {
	f.a.JobStarted(station, now, waited)
	f.b.JobStarted(station, now, waited)
}

func (f fanOut) JobFinished(station string, start, end sim.Time) {
	f.a.JobFinished(station, start, end)
	f.b.JobFinished(station, start, end)
}

func (f fanOut) JobDropped(station string, now sim.Time) {
	f.a.JobDropped(station, now)
	f.b.JobDropped(station, now)
}

func (f fanOut) FrameSent(link string, size int, start, done sim.Time, lost bool) {
	f.a.FrameSent(link, size, start, done, lost)
	f.b.FrameSent(link, size, start, done, lost)
}

func (f fanOut) BatchFlushed(station string, tasks int, waited sim.Duration, now sim.Time) {
	f.a.BatchFlushed(station, tasks, waited, now)
	f.b.BatchFlushed(station, tasks, waited, now)
}

// registerPools hands the checker the ground truth it range-checks the
// pools against: core counts and queue capacities as configured for this
// run (capacities are set before instrumentation in every run path).
func registerPools(tb *Testbed, chk *invariant.Checker) {
	if chk == nil {
		return
	}
	chk.RegisterStation("pool/host", tb.HostPool.Cores(), tb.HostPool.QueueCapacity(),
		func() (int, int) { return tb.HostPool.Busy(), tb.HostPool.QueueLen() })
	chk.RegisterStation("pool/snic", tb.SNICPool.Cores(), tb.SNICPool.QueueCapacity(),
		func() (int, int) { return tb.SNICPool.Busy(), tb.SNICPool.QueueLen() })
	chk.RegisterStation("pool/staging", tb.StagingPool.Cores(), tb.StagingPool.QueueCapacity(),
		func() (int, int) { return tb.StagingPool.Busy(), tb.StagingPool.QueueLen() })
}

// noteInject records a request entering the run's conservation ledger.
func (ctx *runctx) noteInject(seq uint64, bytes int) {
	ctx.chk.Inject(seq, bytes, ctx.tb.Eng.Now())
}

// noteComplete records a request's successful completion.
func (ctx *runctx) noteComplete(seq uint64, bytes int) {
	ctx.chk.Complete(seq, bytes, ctx.tb.Eng.Now())
}

// noteDrop records a request shed at a full queue.
func (ctx *runctx) noteDrop(seq uint64, bytes int) {
	ctx.chk.Drop(seq, bytes, ctx.tb.Eng.Now())
}
