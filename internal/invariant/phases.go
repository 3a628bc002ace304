package invariant

import (
	"fmt"

	"repro/internal/sim"
)

// Per-phase conservation ledger for multi-phase pipelines: every hop a
// request takes through a named phase is audited the same way the
// whole-run ledger audits injection/completion. The laws:
//
//   - a request is in at most one phase at a time;
//   - a phase exit or drop matches the phase the request entered;
//   - per phase, entered == exited + dropped at end of run;
//   - no request is still inside a phase when the run finishes.
//
// The ledger allocates lazily on first PhaseEnter, so non-pipeline runs
// pay nothing.

// phaseLedger is one phase's hop accounting. idx is 1 + the phase's
// position in first-seen order: the value a request's inPhase entry
// holds while it is inside the phase.
type phaseLedger struct {
	entered, exited, dropped uint64
	idx                      uint32
}

// ensurePhases lazily allocates the phase ledger map.
func (c *Checker) ensurePhases() {
	if c.phases == nil {
		c.phases = make(map[string]*phaseLedger)
	}
}

// phase returns (allocating) the named phase's ledger, tracking
// first-seen order so end-of-run verification is deterministic.
func (c *Checker) phase(name string) *phaseLedger {
	pl, ok := c.phases[name]
	if !ok {
		c.phaseOrder = append(c.phaseOrder, name)
		pl = &phaseLedger{idx: uint32(len(c.phaseOrder))}
		c.phases[name] = pl
	}
	return pl
}

// PhaseEnter records a request entering a named phase. Sequence numbers
// are dense per run, as for Inject: one more than 1<<20 past the phase
// ledger's end is a RulePhase violation. Nil-safe.
func (c *Checker) PhaseEnter(phase string, seq uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	c.ensurePhases()
	cur := dense(&c.inPhase, seq)
	switch {
	case cur == nil:
		c.violate(notDense(RulePhase, seq, len(c.inPhase), now))
		return
	case *cur != 0:
		c.violate(&Violation{Rule: RulePhase, Time: now, Station: phase, Request: seq,
			Detail: fmt.Sprintf("entered while still in phase %q", c.phaseOrder[*cur-1])})
		return
	}
	pl := c.phase(phase)
	*cur = pl.idx
	c.inside++
	pl.entered++
}

// PhaseExit records a request leaving the phase it entered. Nil-safe.
func (c *Checker) PhaseExit(phase string, seq uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	c.ensurePhases()
	switch cur := at(c.inPhase, seq); {
	case cur == 0:
		c.violate(&Violation{Rule: RulePhase, Time: now, Station: phase, Request: seq,
			Detail: "exited a phase it never entered"})
		return
	case c.phaseOrder[cur-1] != phase:
		c.violate(&Violation{Rule: RulePhase, Time: now, Station: phase, Request: seq,
			Detail: fmt.Sprintf("exited while in phase %q", c.phaseOrder[cur-1])})
		return
	}
	c.inPhase[seq] = 0
	c.inside--
	c.phase(phase).exited++
}

// PhaseDrop records a request shed inside the phase it entered.
// Nil-safe.
func (c *Checker) PhaseDrop(phase string, seq uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	c.ensurePhases()
	switch cur := at(c.inPhase, seq); {
	case cur == 0:
		c.violate(&Violation{Rule: RulePhase, Time: now, Station: phase, Request: seq,
			Detail: "dropped in a phase it never entered"})
		return
	case c.phaseOrder[cur-1] != phase:
		c.violate(&Violation{Rule: RulePhase, Time: now, Station: phase, Request: seq,
			Detail: fmt.Sprintf("dropped while in phase %q", c.phaseOrder[cur-1])})
		return
	}
	c.inPhase[seq] = 0
	c.inside--
	c.phase(phase).dropped++
}

// PhaseEntered returns how many hops the named phase admitted. Nil-safe.
func (c *Checker) PhaseEntered(phase string) uint64 {
	if c == nil || c.phases == nil {
		return 0
	}
	pl, ok := c.phases[phase]
	if !ok {
		return 0
	}
	return pl.entered
}

// finishPhases runs the end-of-run per-phase conservation checks, in
// first-seen phase order (deterministic across runs).
func (c *Checker) finishPhases(now sim.Time) {
	for _, name := range c.phaseOrder {
		pl := c.phases[name]
		if pl.entered != pl.exited+pl.dropped {
			c.violate(&Violation{Rule: RulePhase, Time: now, Station: name,
				Detail: fmt.Sprintf("entered %d != exited %d + dropped %d",
					pl.entered, pl.exited, pl.dropped)})
		}
	}
	if c.inside > 0 {
		c.violate(&Violation{Rule: RulePhase, Time: now,
			Detail: fmt.Sprintf("%d requests still inside a phase at end of run", c.inside)})
	}
}
