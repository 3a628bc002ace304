package invariant

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestConservationCatchesLostRequest is the acceptance negative test:
// a driver that drops a request on the floor without accounting for it
// (neither Complete nor Drop) must be caught at Finish.
func TestConservationCatchesLostRequest(t *testing.T) {
	c := New("lossy-run").Soft()
	c.Inject(1, 1500, 0)
	c.Inject(2, 1500, sim.Time(10))
	c.Complete(1, 1500, sim.Time(20))
	// Request 2 silently vanishes — the bug this layer exists to catch.
	err := c.Finish(sim.Time(30))
	if err == nil {
		t.Fatal("Finish accepted a run that lost a request")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("Finish returned %T, want *Violation", err)
	}
	if v.Rule != RuleConservation {
		t.Fatalf("rule = %q, want %q", v.Rule, RuleConservation)
	}
	if !strings.Contains(v.Detail, "1 unaccounted") {
		t.Fatalf("detail %q does not name the unaccounted request", v.Detail)
	}
	if v.Run != "lossy-run" {
		t.Fatalf("violation run = %q, want the checker's label", v.Run)
	}
}

func TestFinishCatchesByteLeak(t *testing.T) {
	c := New("byte-leak").Soft()
	c.Inject(1, 100, 0)
	c.Complete(1, 60, sim.Time(5)) // 40 bytes vanish
	err := c.Finish(sim.Time(10))
	v, ok := err.(*Violation)
	if !ok || v.Rule != RuleBytes {
		t.Fatalf("Finish = %v, want a %s violation", err, RuleBytes)
	}
}

func TestFinishPassesBalancedRun(t *testing.T) {
	c := New("clean")
	c.Inject(1, 100, 0)
	c.Inject(2, 200, sim.Time(1))
	c.Complete(1, 100, sim.Time(2))
	c.Drop(2, 200, sim.Time(3))
	if err := c.Finish(sim.Time(4)); err != nil {
		t.Fatalf("balanced run failed: %v", err)
	}
	if c.Injected() != 2 || c.Completed() != 1 || c.Dropped() != 1 || c.InFlight() != 0 {
		t.Fatalf("ledger = %d/%d/%d/%d, want 2/1/1/0",
			c.Injected(), c.Completed(), c.Dropped(), c.InFlight())
	}
}

// TestFailFastPanicsWithTypedViolation: the production mode dies with
// the *Violation itself, so a recovering harness gets structured context.
func TestFailFastPanicsWithTypedViolation(t *testing.T) {
	c := New("fail-fast")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("fail-fast checker did not panic")
		}
		v, ok := r.(*Violation)
		if !ok {
			t.Fatalf("panicked with %T, want *Violation", r)
		}
		if v.Rule != RuleRequestState || v.Run != "fail-fast" || v.Request != 7 {
			t.Fatalf("violation = %+v, want request-state for request 7", v)
		}
	}()
	c.Complete(7, 0, sim.Time(5)) // never injected
}

func TestSoftKeepsFirstViolation(t *testing.T) {
	c := New("soft").Soft()
	c.Complete(1, 0, 0) // first: complete without inject
	c.Drop(2, 0, 0)     // second: drop without inject
	v := c.Err().(*Violation)
	if v.Request != 1 || !strings.Contains(v.Detail, "completed without") {
		t.Fatalf("Err kept %+v, want the first violation (request 1)", v)
	}
}

func TestRequestStateTransitions(t *testing.T) {
	cases := []struct {
		name   string
		drive  func(c *Checker)
		detail string
	}{
		{"double inject", func(c *Checker) {
			c.Inject(1, 0, 0)
			c.Inject(1, 0, 0)
		}, "injected twice"},
		{"double complete", func(c *Checker) {
			c.Inject(1, 0, 0)
			c.Complete(1, 0, 0)
			c.Complete(1, 0, 0)
		}, "completed twice"},
		{"complete after drop", func(c *Checker) {
			c.Inject(1, 0, 0)
			c.Drop(1, 0, 0)
			c.Complete(1, 0, 0)
		}, "completed after being dropped"},
		{"drop after complete", func(c *Checker) {
			c.Inject(1, 0, 0)
			c.Complete(1, 0, 0)
			c.Drop(1, 0, 0)
		}, "dropped after already being resolved"},
		{"drop without inject", func(c *Checker) {
			c.Drop(1, 0, 0)
		}, "dropped without being injected"},
		{"negative payload", func(c *Checker) {
			c.Inject(1, -4, 0)
		}, "negative payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New("t").Soft()
			tc.drive(c)
			v, ok := c.Err().(*Violation)
			if !ok {
				t.Fatalf("no violation recorded")
			}
			if !strings.Contains(v.Detail, tc.detail) {
				t.Fatalf("detail %q, want substring %q", v.Detail, tc.detail)
			}
		})
	}
}

func TestClockMonotonicity(t *testing.T) {
	c := New("clock").Soft()
	c.JobStarted("pool/host", sim.Time(100), 0)
	c.JobQueued("pool/host", sim.Time(40), 1) // time ran backwards
	v, ok := c.Err().(*Violation)
	if !ok || v.Rule != RuleClock {
		t.Fatalf("Err = %v, want a %s violation", c.Err(), RuleClock)
	}
	if c.Now() != sim.Time(100) {
		t.Fatalf("high-water mark moved backwards to %v", c.Now())
	}
}

func TestCausalityInCallbacks(t *testing.T) {
	t.Run("negative service", func(t *testing.T) {
		c := New("t").Soft()
		c.JobFinished("s", sim.Time(50), sim.Time(20))
		if v := c.Err().(*Violation); v.Rule != RuleCausality {
			t.Fatalf("rule = %q, want causality", v.Rule)
		}
	})
	t.Run("negative wait", func(t *testing.T) {
		c := New("t").Soft()
		c.JobStarted("s", sim.Time(50), sim.Duration(-1))
		if v := c.Err().(*Violation); v.Rule != RuleCausality {
			t.Fatalf("rule = %q, want causality", v.Rule)
		}
	})
	t.Run("negative batch wait", func(t *testing.T) {
		c := New("t").Soft()
		c.BatchFlushed("s", 3, sim.Duration(-1), sim.Time(10))
		if v := c.Err().(*Violation); v.Rule != RuleCausality {
			t.Fatalf("rule = %q, want causality", v.Rule)
		}
	})
	t.Run("empty batch", func(t *testing.T) {
		c := New("t").Soft()
		c.BatchFlushed("s", 0, 0, sim.Time(10))
		if v := c.Err().(*Violation); v.Rule != RuleQueue {
			t.Fatalf("rule = %q, want queue-sanity", v.Rule)
		}
	})
}

func TestQueueSanityViaProbe(t *testing.T) {
	cases := []struct {
		name         string
		busy, queued int
		detail       string
	}{
		{"negative occupancy", -1, 0, "is negative"},
		{"occupancy beyond servers", 5, 0, "exceeds 4 servers"},
		{"negative queue", 0, -2, "is negative"},
		{"queue beyond capacity", 0, 9, "exceeds capacity 8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New("t").Soft()
			c.RegisterStation("pool/host", 4, 8, func() (int, int) { return tc.busy, tc.queued })
			c.JobQueued("pool/host", sim.Time(1), 1)
			v, ok := c.Err().(*Violation)
			if !ok || v.Rule != RuleQueue {
				t.Fatalf("Err = %v, want a queue-sanity violation", c.Err())
			}
			if !strings.Contains(v.Detail, tc.detail) {
				t.Fatalf("detail %q, want substring %q", v.Detail, tc.detail)
			}
			if v.Station != "pool/host" {
				t.Fatalf("station = %q", v.Station)
			}
		})
	}
	t.Run("sane counters pass", func(t *testing.T) {
		c := New("t")
		c.RegisterStation("pool/host", 4, 8, func() (int, int) { return 4, 8 })
		c.JobQueued("pool/host", sim.Time(1), 8)
		c.JobStarted("pool/host", sim.Time(2), sim.Duration(1))
		c.JobFinished("pool/host", sim.Time(2), sim.Time(3))
		if c.Err() != nil {
			t.Fatalf("boundary occupancy flagged: %v", c.Err())
		}
	})
}

func TestQueuedCallbackBounds(t *testing.T) {
	c := New("t").Soft()
	c.RegisterStation("s", 2, 4, nil)
	c.JobQueued("s", sim.Time(1), 5) // beyond capacity
	if v := c.Err().(*Violation); v.Rule != RuleQueue {
		t.Fatalf("rule = %q", v.Rule)
	}
	c2 := New("t").Soft()
	c2.JobQueued("s", sim.Time(1), 0) // a queued job means length >= 1
	if v := c2.Err().(*Violation); v.Rule != RuleQueue {
		t.Fatalf("rule = %q", v.Rule)
	}
}

func TestDropAtUnboundedQueue(t *testing.T) {
	c := New("t").Soft()
	c.RegisterStation("s", 2, 0, nil) // capacity 0 = unbounded
	c.JobDropped("s", sim.Time(1))
	v, ok := c.Err().(*Violation)
	if !ok || !strings.Contains(v.Detail, "unbounded") {
		t.Fatalf("Err = %v, want an unbounded-queue drop violation", c.Err())
	}
	// An unregistered station's drop is fine: bounds unknown.
	c2 := New("t")
	c2.JobDropped("other", sim.Time(1))
	if c2.Err() != nil {
		t.Fatalf("drop at unknown station flagged: %v", c2.Err())
	}
}

// TestFrameSentDoesNotAdvanceClock: the link callback fires at
// submission time with a serialization slot possibly in the future;
// treating that slot as "now" would make every later event look like a
// clock regression.
func TestFrameSentDoesNotAdvanceClock(t *testing.T) {
	c := New("t")
	c.JobStarted("s", sim.Time(10), 0)
	c.FrameSent("wire", 1500, sim.Time(500), sim.Time(600), false)
	if c.Now() != sim.Time(10) {
		t.Fatalf("FrameSent advanced the clock to %v", c.Now())
	}
	c.JobStarted("s", sim.Time(20), 0) // must not be a regression
	if c.Err() != nil {
		t.Fatalf("future slot poisoned the clock: %v", c.Err())
	}
}

func TestFrameSentChecks(t *testing.T) {
	t.Run("slot before now", func(t *testing.T) {
		c := New("t").Soft()
		c.JobStarted("s", sim.Time(100), 0)
		c.FrameSent("wire", 64, sim.Time(40), sim.Time(50), false)
		if v := c.Err().(*Violation); v.Rule != RuleClock {
			t.Fatalf("rule = %q, want clock-monotonic", v.Rule)
		}
	})
	t.Run("slot ends before start", func(t *testing.T) {
		c := New("t").Soft()
		c.FrameSent("wire", 64, sim.Time(50), sim.Time(40), false)
		if v := c.Err().(*Violation); v.Rule != RuleCausality {
			t.Fatalf("rule = %q, want causality", v.Rule)
		}
	})
	t.Run("negative size", func(t *testing.T) {
		c := New("t").Soft()
		c.FrameSent("wire", -1, sim.Time(0), sim.Time(1), false)
		if v := c.Err().(*Violation); v.Rule != RuleBytes {
			t.Fatalf("rule = %q, want byte-conservation", v.Rule)
		}
	})
}

func TestVerifyCountsCrossCheck(t *testing.T) {
	c := New("t").Soft()
	c.Inject(1, 0, 0)
	c.Complete(1, 0, 0)
	c.VerifyCounts(1, 1, sim.Time(1))
	if c.Err() != nil {
		t.Fatalf("matching counters flagged: %v", c.Err())
	}
	c.VerifyCounts(2, 1, sim.Time(2)) // driver claims one more send
	v, ok := c.Err().(*Violation)
	if !ok || v.Rule != RuleConservation {
		t.Fatalf("Err = %v, want a conservation violation", c.Err())
	}
}

// TestNilCheckerIsNoOp: checks-off mode routes every call through a nil
// receiver; none may dereference it.
func TestNilCheckerIsNoOp(t *testing.T) {
	var c *Checker
	c.Inject(1, 10, 0)
	c.Complete(1, 10, 0)
	c.Drop(2, 10, 0)
	c.RegisterStation("s", 1, 1, nil)
	c.JobQueued("s", 0, 1)
	c.JobStarted("s", 0, 0)
	c.JobFinished("s", 0, 0)
	c.JobDropped("s", 0)
	c.FrameSent("w", 1, 0, 0, false)
	c.BatchFlushed("s", 1, 0, 0)
	c.VerifyCounts(9, 9, 0)
	if c.Err() != nil || c.Run() != "" || c.Now() != 0 {
		t.Fatal("nil checker returned non-zero state")
	}
	if c.Injected()+c.Completed()+c.Dropped()+c.InFlight() != 0 {
		t.Fatal("nil checker counted something")
	}
	if err := c.Finish(0); err != nil {
		t.Fatalf("nil Finish = %v", err)
	}
}

// TestFinishDoesNotPanicInFailFastMode: end-of-run collection must
// return the violation, not die mid-audit, so run drivers control how a
// failed run reports.
func TestFinishDoesNotPanicInFailFastMode(t *testing.T) {
	c := New("t") // fail-fast
	c.Inject(1, 0, 0)
	err := c.Finish(sim.Time(1)) // in-flight request: violation, no panic
	if err == nil {
		t.Fatal("Finish missed the in-flight request")
	}
	// And fail-fast is restored afterwards.
	defer func() {
		if recover() == nil {
			t.Fatal("checker lost fail-fast after Finish")
		}
	}()
	c.Drop(99, 0, sim.Time(2))
}

func TestViolationErrorFormatting(t *testing.T) {
	full := &Violation{Rule: RuleCausality, Run: "redis@snic-cpu", Time: sim.Time(1500),
		Station: "pool/snic", Request: 42, Detail: "ended before it started"}
	s := full.Error()
	for _, want := range []string{"causality", "redis@snic-cpu", "pool/snic", "request 42", "ended before"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Error() = %q, missing %q", s, want)
		}
	}
	bare := &Violation{Rule: RuleClock, Detail: "d"}
	s = bare.Error()
	if strings.Contains(s, "request") || strings.Contains(s, `""`) {
		t.Fatalf("Error() = %q renders empty fields", s)
	}
}
