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
// A run resolves each phase's name to a PhaseID once, when it is wired,
// and the hop hooks index the ledger by it. The ledger allocates on the
// first Phase, so non-pipeline runs pay nothing.

// PhaseID is a phase ledger's handle: 1 + the phase's position in bind
// order. 0 is no phase, the handle a nil checker returns.
type PhaseID uint32

// phaseLedger is one phase's hop accounting.
type phaseLedger struct {
	name                     string
	entered, exited, dropped uint64
}

// Phase returns the named phase's handle, adding its ledger on first
// use. Call it when a run is wired, not per hop. Nil-safe: a nil
// checker returns 0.
func (c *Checker) Phase(name string) PhaseID {
	if c == nil {
		return 0
	}
	for i := range c.phases {
		if c.phases[i].name == name {
			return PhaseID(i + 1)
		}
	}
	c.phases = append(c.phases, phaseLedger{name: name})
	return PhaseID(len(c.phases))
}

// PhaseEnter records a request entering phase ph. Sequence numbers are
// dense per run, as for Inject: one more than 1<<20 past the phase
// ledger's end is a RulePhase violation. Nil-safe.
func (c *Checker) PhaseEnter(ph PhaseID, seq uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	pl := &c.phases[ph-1]
	cur := dense(&c.inPhase, seq)
	switch {
	case cur == nil:
		c.violate(notDense(RulePhase, seq, len(c.inPhase), now))
		return
	case *cur != 0:
		c.violate(&Violation{Rule: RulePhase, Time: now, Station: pl.name, Request: seq,
			Detail: fmt.Sprintf("entered while still in phase %q", c.phases[*cur-1].name)})
		return
	}
	*cur = ph
	c.inside++
	pl.entered++
}

// leave takes a request out of phase ph for PhaseExit and PhaseDrop,
// reporting whether it was there. verb names the hop in a violation,
// and never is the detail for a request in no phase.
func (c *Checker) leave(ph PhaseID, seq uint64, now sim.Time, verb, never string) bool {
	name := c.phases[ph-1].name
	switch cur := at(c.inPhase, seq); {
	case cur == 0:
		c.violate(&Violation{Rule: RulePhase, Time: now, Station: name, Request: seq, Detail: never})
		return false
	case cur != ph:
		c.violate(&Violation{Rule: RulePhase, Time: now, Station: name, Request: seq,
			Detail: fmt.Sprintf("%s while in phase %q", verb, c.phases[cur-1].name)})
		return false
	}
	c.inPhase[seq] = 0
	c.inside--
	return true
}

// PhaseExit records a request leaving the phase it entered. Nil-safe.
func (c *Checker) PhaseExit(ph PhaseID, seq uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	if c.leave(ph, seq, now, "exited", "exited a phase it never entered") {
		c.phases[ph-1].exited++
	}
}

// PhaseDrop records a request shed inside the phase it entered.
// Nil-safe.
func (c *Checker) PhaseDrop(ph PhaseID, seq uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	if c.leave(ph, seq, now, "dropped", "dropped in a phase it never entered") {
		c.phases[ph-1].dropped++
	}
}

// PhaseEntered returns how many hops the named phase admitted. Nil-safe.
func (c *Checker) PhaseEntered(phase string) uint64 {
	if c == nil {
		return 0
	}
	for i := range c.phases {
		if c.phases[i].name == phase {
			return c.phases[i].entered
		}
	}
	return 0
}

// finishPhases runs the end-of-run per-phase conservation checks, in
// bind order (deterministic across runs).
func (c *Checker) finishPhases(now sim.Time) {
	for i := range c.phases {
		pl := &c.phases[i]
		if pl.entered != pl.exited+pl.dropped {
			c.violate(&Violation{Rule: RulePhase, Time: now, Station: pl.name,
				Detail: fmt.Sprintf("entered %d != exited %d + dropped %d",
					pl.entered, pl.exited, pl.dropped)})
		}
	}
	if c.inside > 0 {
		c.violate(&Violation{Rule: RulePhase, Time: now,
			Detail: fmt.Sprintf("%d requests still inside a phase at end of run", c.inside)})
	}
}
