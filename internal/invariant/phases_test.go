package invariant

import (
	"errors"
	"strings"
	"testing"
)

func TestPhaseLedgerBalancedRunPasses(t *testing.T) {
	c := New("phases").Soft()
	nat, ids := c.Phase("nat"), c.Phase("ids")
	if again := c.Phase("nat"); again != nat {
		t.Fatalf("Phase(nat) bound twice = %d, then %d", nat, again)
	}
	c.PhaseEnter(nat, 1, 0)
	c.PhaseExit(nat, 1, 10)
	c.PhaseEnter(ids, 1, 11)
	c.PhaseExit(ids, 1, 20)
	c.PhaseEnter(nat, 2, 21)
	c.PhaseDrop(nat, 2, 22)
	if err := c.Finish(30); err != nil {
		t.Fatalf("balanced phase ledger should pass: %v", err)
	}
	if got := c.PhaseEntered("nat"); got != 2 {
		t.Fatalf("PhaseEntered(nat) = %d, want 2", got)
	}
}

func TestPhaseDoubleEnterViolates(t *testing.T) {
	c := New("phases").Soft()
	c.PhaseEnter(c.Phase("nat"), 1, 0)
	c.PhaseEnter(c.Phase("ids"), 1, 1)
	var v *Violation
	if !errors.As(c.Err(), &v) || v.Rule != RulePhase {
		t.Fatalf("want RulePhase violation, got %v", c.Err())
	}
	if !strings.Contains(v.Detail, "still in phase") {
		t.Fatalf("unexpected detail %q", v.Detail)
	}
}

func TestPhaseExitWithoutEnterViolates(t *testing.T) {
	c := New("phases").Soft()
	c.PhaseExit(c.Phase("nat"), 7, 0)
	var v *Violation
	if !errors.As(c.Err(), &v) || v.Rule != RulePhase {
		t.Fatalf("want RulePhase violation, got %v", c.Err())
	}
}

func TestPhaseDropInWrongPhaseViolates(t *testing.T) {
	c := New("phases").Soft()
	c.PhaseEnter(c.Phase("nat"), 1, 0)
	c.PhaseDrop(c.Phase("ids"), 1, 1)
	var v *Violation
	if !errors.As(c.Err(), &v) || v.Rule != RulePhase {
		t.Fatalf("want RulePhase violation, got %v", c.Err())
	}
}

func TestPhaseImbalanceCaughtAtFinish(t *testing.T) {
	c := New("phases").Soft()
	c.PhaseEnter(c.Phase("nat"), 1, 0)
	var v *Violation
	if !errors.As(c.Finish(5), &v) || v.Rule != RulePhase {
		t.Fatalf("want RulePhase violation at finish, got %v", c.Finish(5))
	}
}

func TestPhaseMethodsNilSafe(t *testing.T) {
	var c *Checker
	nat := c.Phase("nat")
	c.PhaseEnter(nat, 1, 0)
	c.PhaseExit(nat, 1, 1)
	c.PhaseDrop(nat, 1, 2)
	if got := c.PhaseEntered("nat"); got != 0 {
		t.Fatalf("nil checker PhaseEntered = %d, want 0", got)
	}
}
