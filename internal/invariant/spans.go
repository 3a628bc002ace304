package invariant

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// SpanCheckOpts tunes the end-of-run span audit.
type SpanCheckOpts struct {
	// AllowStragglers permits a child span to end after its parent
	// closes. Failover replays need this: a request abandoned at its
	// retry timeout closes its root span while the stale in-service
	// copy still finishes (and records) later.
	AllowStragglers bool
}

// CheckSpans audits a finished run's span tree for causality: no closed
// span has negative duration, every child starts no earlier than its
// parent (a request phase cannot precede the request's arrival), and —
// unless AllowStragglers — every closed child ends no later than its
// closed parent. Open spans are legitimate (requests shed mid-flight)
// and are only checked on the start side. Spans are read in place in
// record order through Recorder.Timing, which touches no name; a
// violation's requests/<name> label is built only when one is found, so
// a clean audit allocates nothing. Returns the first *Violation found,
// obs.ErrSpansDropped if the recorder no longer holds its spans (audit
// before handing a run to its Collector), or nil. Nil-safe.
func CheckSpans(rec *obs.Recorder, opts SpanCheckOpts) error {
	n := obs.SpanID(rec.SpanCount())
	for id := obs.SpanID(1); id <= n; id++ {
		s, ok := rec.Timing(id)
		if !ok {
			return obs.ErrSpansDropped
		}
		if !s.Open && s.End < s.Start {
			return spanViolation(rec, id, s.Start,
				fmt.Sprintf("span %d has negative duration (%v .. %v)", id, s.Start, s.End))
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := rec.Timing(s.Parent)
		if !ok || s.Parent == id {
			return spanViolation(rec, id, s.Start,
				fmt.Sprintf("span %d links to impossible parent %d", id, s.Parent))
		}
		if s.Start < p.Start {
			return spanViolation(rec, id, s.Start,
				fmt.Sprintf("span %d starts at %v before its parent at %v", id, s.Start, p.Start))
		}
		if !opts.AllowStragglers && !s.Open && !p.Open && s.End > p.End {
			return spanViolation(rec, id, s.End,
				fmt.Sprintf("span %d ends at %v after its parent at %v", id, s.End, p.End))
		}
	}
	return nil
}

// spanViolation is the causality violation for span id, labelled
// requests/<name>.
func spanViolation(rec *obs.Recorder, id obs.SpanID, at sim.Time, detail string) *Violation {
	s, _ := rec.View(id)
	return &Violation{Rule: RuleCausality, Run: rec.Label(), Time: at,
		Station: obs.TrackRequests + "/" + s.Name, Detail: detail}
}
