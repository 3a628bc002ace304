package invariant

import (
	"testing"

	"repro/internal/sim"
)

// spanViolation returns the violation a soft checker recorded, failing
// the test unless it is a span's causality violation.
func spanViolation(t *testing.T, c *Checker) *Violation {
	t.Helper()
	v, ok := c.Err().(*Violation)
	if !ok || v.Rule != RuleCausality || v.Detail != spanRules {
		t.Fatalf("err = %v, want a span's causality violation", c.Err())
	}
	return v
}

// A request's stages, audited as they are recorded while it is in
// flight, pass; the checker counts each one.
func TestCheckSpansCleanTree(t *testing.T) {
	c := New("clean")
	c.Inject(1, 64, 100)
	c.Span("wire+switch", 1, 100, 100, 120, 120, false) // starts with its request, ends now
	c.Span("queue", 1, 100, 120, 120, 130, false)       // zero duration
	c.Span("cpu-service", 1, 100, 120, 180, 190, false)
	c.Complete(1, 64, 200)
	if err := c.Finish(200); err != nil {
		t.Fatalf("clean request flagged: %v", err)
	}
	if c.Spans() != 3 {
		t.Fatalf("Spans = %d, want 3", c.Spans())
	}
}

func TestCheckSpansNegativeDuration(t *testing.T) {
	c := New("neg").Soft()
	c.Inject(1, 64, 0)
	c.Span("serve", 1, 0, 100, 60, 100, false)
	v := spanViolation(t, c)
	if v.Run != "neg" || v.Station != "requests/serve" || v.Request != 1 || v.Time != 100 {
		t.Fatalf("context = %q/%q/%d at %v, want the run, requests/name, the request and the record time",
			v.Run, v.Station, v.Request, v.Time)
	}

	// Checks fail fast outside Soft mode.
	defer func() {
		if _, ok := recover().(*Violation); !ok {
			t.Fatal("fail-fast checker did not panic with a *Violation")
		}
	}()
	f := New("neg")
	f.Inject(1, 64, 0)
	f.Span("serve", 1, 0, 100, 60, 100, false)
}

func TestCheckSpansChildBeforeParent(t *testing.T) {
	c := New("early").Soft()
	c.Inject(1, 64, 100)
	// The stage claims to start before its request was sent.
	c.Span("serve", 1, 100, 50, 150, 150, false)
	spanViolation(t, c)
}

// A span is recorded once it has ended, so one ending after the time it
// is recorded at is an error in the run wiring.
func TestCheckSpansUnendedSpan(t *testing.T) {
	c := New("future").Soft()
	c.Inject(1, 64, 100)
	c.Span("serve", 1, 100, 120, 300, 200, false)
	spanViolation(t, c)
}

// A stage recorded after its request resolved fails, whether the
// request completed or was dropped, and so does one of a request never
// injected. A failover copy still in service after its request
// resolved (a retry completed first, or the request was abandoned at
// its timeout) is stale, and its late stages pass.
func TestCheckSpansStraggler(t *testing.T) {
	for _, tc := range []struct {
		name    string
		resolve func(*Checker)
	}{
		{"completed", func(c *Checker) { c.Complete(1, 64, 150) }},
		{"abandoned", func(c *Checker) { c.Drop(1, 64, 150) }},
		{"never injected", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New("strag").Soft()
			if tc.resolve != nil {
				c.Inject(1, 64, 100)
				tc.resolve(c)
			}
			c.Span("serve", 1, 100, 120, 300, 300, true)
			if err := c.Err(); err != nil {
				t.Fatalf("stale copy's span flagged: %v", err)
			}
			c.Span("serve", 1, 100, 120, 300, 300, false)
			spanViolation(t, c)
		})
	}
}

// A request shed at a full queue leaves its root span open: the stages
// it crossed before the drop pass, and so does the run.
func TestCheckSpansOpenSpansPass(t *testing.T) {
	c := New("open")
	c.Inject(1, 64, 100)
	c.Span("wire+switch", 1, 100, 100, 120, 120, false)
	c.Drop(1, 64, 120) // shed: the root never closes
	if err := c.Finish(150); err != nil {
		t.Fatalf("shed request flagged: %v", err)
	}
}

// A nil checker, as in a run with checks off, audits nothing.
func TestCheckSpansNilRecorder(t *testing.T) {
	var c *Checker
	c.Span("serve", 1, 100, 50, 10, 0, false) // breaks every rule
	if c.Spans() != 0 || c.Err() != nil {
		t.Fatalf("nil checker audited %d spans, err %v", c.Spans(), c.Err())
	}
}

// A clean span costs compares and a ledger read, so a clean stream of
// them allocates nothing however long it runs.
func TestCheckSpansCleanAuditAllocatesNothing(t *testing.T) {
	c := New("clean")
	const n = 2500
	for i := uint64(0); i < n; i++ {
		c.Inject(i, 64, sim.Time(i*100))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := uint64(0); i < n; i++ {
			at := sim.Time(i * 100)
			c.Span("queue", i, at, at, at+10, at+10, false)
			c.Span("cpu-service", i, at, at+10, at+60, at+60, false)
			c.Span("wire-return", i, at, at+60, at+70, at+90, true)
		}
	})
	if allocs != 0 {
		t.Fatalf("a clean stream of %d spans allocated %v times, want 0", 3*n, allocs)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("clean stream flagged: %v", err)
	}
}
