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
// sim observer slots telemetry uses, and span causality as spans are
// recorded. With Checks off every hook below degenerates to the
// telemetry nil check, so the unchecked hot path is unchanged.

// newChecker returns a fail-fast checker for one run, or nil when
// checked mode is off.
func (r *Runner) newChecker(label string) *invariant.Checker {
	if !r.Checks {
		return nil
	}
	return invariant.New(label)
}

// observer is what an instrumented resource's single observer slot
// takes: the recorder's or the checker's observer bound to that
// resource, or a fan-out to both.
type observer interface {
	sim.StationObserver
	sim.LinkObserver
	sim.BatchObserver
}

// bind returns the observer for the named resource of a run with
// recorder rec and checker chk: the bare bound recorder or checker when
// only one is on (never a nil wrapped in an interface, so the
// resources' "observer == nil" fast path stays honest), a fan-out when
// both are, and nil when neither is.
func bind(rec *obs.Recorder, chk *invariant.Checker, name string) observer {
	switch {
	case rec != nil && chk != nil:
		return &fanOut{rec.Resource(name), chk.Resource(name)}
	case rec != nil:
		return rec.Resource(name)
	case chk != nil:
		return chk.Resource(name)
	}
	return nil
}

// fanOut forwards every callback to one resource's bound recorder, then
// its bound checker.
type fanOut struct {
	rec *obs.Resource
	chk *invariant.Resource
}

func (f *fanOut) JobQueued(now sim.Time, queueLen int) {
	f.rec.JobQueued(now, queueLen)
	f.chk.JobQueued(now, queueLen)
}

func (f *fanOut) JobStarted(now sim.Time, waited sim.Duration) {
	f.rec.JobStarted(now, waited)
	f.chk.JobStarted(now, waited)
}

func (f *fanOut) JobFinished(start, end sim.Time) {
	f.rec.JobFinished(start, end)
	f.chk.JobFinished(start, end)
}

func (f *fanOut) JobDropped(now sim.Time) {
	f.rec.JobDropped(now)
	f.chk.JobDropped(now)
}

func (f *fanOut) FrameSent(size int, start, done sim.Time, lost bool) {
	f.rec.FrameSent(size, start, done, lost)
	f.chk.FrameSent(size, start, done, lost)
}

func (f *fanOut) BatchFlushed(tasks int, waited sim.Duration, now sim.Time) {
	f.rec.BatchFlushed(tasks, waited, now)
	f.chk.BatchFlushed(tasks, waited, now)
}

// registerPools hands the checker the ground truth it range-checks the
// pools against: core counts and queue capacities as configured for this
// run (capacities are set before instrumentation in every run path). It
// updates the pools' bound observers in place.
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
