// Package invariant is the checked-execution mode of the testbed: a set
// of composable observers that validate the simulator's physical laws
// online, while a run executes, instead of trusting golden outputs.
//
// The laws are spec-derived, not behaviour-derived, so they survive any
// engine refactor:
//
//   - request conservation: injected == completed + dropped (+ explained
//     in-flight), for plain runs, trace replays, fleet servers and
//     faulted/failover replays alike;
//   - byte conservation: payload bytes follow the same ledger;
//   - causality: every span of a request, audited as it is recorded,
//     has ended, starts no earlier than its request, has no negative
//     duration, and belongs to a request still in flight;
//   - clock monotonicity: observed virtual time never runs backwards;
//   - queue sanity: station occupancy is never negative, never exceeds
//     the server count, and queues never exceed their capacity.
//
// A Checker is wired exactly like the telemetry recorder (see
// internal/obs): Checker.Resource binds it to each resource by name when
// a run is wired, and the bound observer, which implements the
// internal/sim observer interfaces, shares the resource's observer slot
// with the recorder's through the run wiring's fan-out (internal/core).
// With checks off the hot path is unchanged — the same single nil guard
// as telemetry.
//
// Violations fail fast: the checker panics with a typed *Violation
// carrying the run label, virtual time, station and request so a failing
// fuzz case or CI run pinpoints the broken law immediately.
package invariant

import (
	"fmt"

	"repro/internal/sim"
)

// Rule names the class of physical law a violation broke.
type Rule string

// The checked rules.
const (
	// RuleConservation: injected != completed + dropped + in-flight.
	RuleConservation Rule = "request-conservation"
	// RuleBytes: payload bytes in != bytes completed + bytes dropped.
	RuleBytes Rule = "byte-conservation"
	// RuleRequestState: an impossible per-request transition (complete
	// without inject, double complete, drop after complete, ...).
	RuleRequestState Rule = "request-state"
	// RuleCausality: a span violates arrival ≤ enter ≤ exit ≤ now, or
	// outlives its request.
	RuleCausality Rule = "causality"
	// RuleClock: observed virtual time ran backwards.
	RuleClock Rule = "clock-monotonic"
	// RuleQueue: negative occupancy, occupancy beyond the server count,
	// or a queue beyond its capacity.
	RuleQueue Rule = "queue-sanity"
	// RuleDispatch: the fleet dispatcher lost or invented rate mass in
	// an interval (offered + backlog != assigned + lost + parked).
	RuleDispatch Rule = "dispatch-conservation"
	// RulePhase: a pipeline phase broke its hop ledger (entered !=
	// exited + dropped, a request in two phases at once, or an exit
	// from a phase the request never entered).
	RulePhase Rule = "phase-conservation"
	// RuleBijection: a translation table lost its two-way consistency.
	RuleBijection Rule = "table-bijection"
	// RuleFlow: the offload datapath broke its classification ledger
	// (a packet on two paths, fast + slow != injected) or the bounded
	// flow table exceeded its capacity or insert-queue budget.
	RuleFlow Rule = "flow-conservation"
)

// Violation is the typed error every check fails with. Fields are the
// structured context of the failure; zero values mean "not applicable"
// (e.g. a clock violation carries no request).
type Violation struct {
	Rule Rule
	// Run is the human-readable run label (empty for standalone checks).
	Run string
	// Time is the virtual time at which the violation was detected.
	Time sim.Time
	// Station is the resource involved, when one is.
	Station string
	// Request is the request sequence number involved, when one is.
	Request uint64
	// Detail states the broken equation with its observed values.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	s := fmt.Sprintf("invariant: %s violated", v.Rule)
	if v.Run != "" {
		s += fmt.Sprintf(" in %q", v.Run)
	}
	s += fmt.Sprintf(" at %v", v.Time)
	if v.Station != "" {
		s += fmt.Sprintf(" on %q", v.Station)
	}
	if v.Request != 0 {
		s += fmt.Sprintf(" (request %d)", v.Request)
	}
	return s + ": " + v.Detail
}
