package invariant

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Span audits one child span of request seq, named name, as the run
// records it at now. sentAt is the request's start, where its root span
// begins. Every rule is local to the request, so the audit needs no
// stored span:
//   - the span ends no earlier than it starts;
//   - it starts no earlier than its request;
//   - it has already ended (end <= now);
//   - its request is still in flight in the ledger, unless stale: a
//     failover copy still in service after its request resolved (a
//     retry completed first, or the request was abandoned) records its
//     stages late.
//
// A clean span costs four compares and allocates nothing, and Span is
// small enough to inline into the run's span hook. A broken span is a
// RuleCausality violation on requests/<name> at now, naming the
// request. Nil-safe.
//
//snicvet:hotpath
func (c *Checker) Span(name string, seq uint64, sentAt, start, end, now sim.Time, stale bool) {
	if c == nil {
		return
	}
	c.spans++
	if end < start || start < sentAt || end > now ||
		!stale && (seq >= uint64(len(c.state)) || c.state[seq] != reqInFlight) {
		//snicvet:ignore hotpath -- allocates only the *Violation it reports
		c.violate(&Violation{Rule: RuleCausality, Time: now, Station: obs.TrackRequests + "/" + name,
			Request: seq, Detail: spanRules})
	}
}

// spanRules is a span violation's detail. It is a constant, not the
// span's values formatted, so that Span stays inlinable.
const spanRules = "a span must end no earlier than it starts, start no earlier than its request, " +
	"end no later than now, and belong to a request still in flight"

// Spans returns how many child spans the checker audited. Nil-safe.
func (c *Checker) Spans() uint64 {
	if c == nil {
		return 0
	}
	return c.spans
}
