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
	c.Resource("pool/host").JobStarted(sim.Time(100), 0)
	c.Resource("pool/host").JobQueued(sim.Time(40), 1) // time ran backwards
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
		c.Resource("s").JobFinished(sim.Time(50), sim.Time(20))
		if v := c.Err().(*Violation); v.Rule != RuleCausality {
			t.Fatalf("rule = %q, want causality", v.Rule)
		}
	})
	t.Run("negative wait", func(t *testing.T) {
		c := New("t").Soft()
		c.Resource("s").JobStarted(sim.Time(50), sim.Duration(-1))
		if v := c.Err().(*Violation); v.Rule != RuleCausality {
			t.Fatalf("rule = %q, want causality", v.Rule)
		}
	})
	t.Run("negative batch wait", func(t *testing.T) {
		c := New("t").Soft()
		c.Resource("s").BatchFlushed(3, sim.Duration(-1), sim.Time(10))
		if v := c.Err().(*Violation); v.Rule != RuleCausality {
			t.Fatalf("rule = %q, want causality", v.Rule)
		}
	})
	t.Run("empty batch", func(t *testing.T) {
		c := New("t").Soft()
		c.Resource("s").BatchFlushed(0, 0, sim.Time(10))
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
			c.Resource("pool/host").JobQueued(sim.Time(1), 1)
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
		c.Resource("pool/host").JobQueued(sim.Time(1), 8)
		c.Resource("pool/host").JobStarted(sim.Time(2), sim.Duration(1))
		c.Resource("pool/host").JobFinished(sim.Time(2), sim.Time(3))
		if c.Err() != nil {
			t.Fatalf("boundary occupancy flagged: %v", c.Err())
		}
	})
}

func TestQueuedCallbackBounds(t *testing.T) {
	c := New("t").Soft()
	c.RegisterStation("s", 2, 4, nil)
	c.Resource("s").JobQueued(sim.Time(1), 5) // beyond capacity
	if v := c.Err().(*Violation); v.Rule != RuleQueue {
		t.Fatalf("rule = %q", v.Rule)
	}
	c2 := New("t").Soft()
	c2.Resource("s").JobQueued(sim.Time(1), 0) // a queued job means length >= 1
	if v := c2.Err().(*Violation); v.Rule != RuleQueue {
		t.Fatalf("rule = %q", v.Rule)
	}
}

func TestDropAtUnboundedQueue(t *testing.T) {
	c := New("t").Soft()
	c.RegisterStation("s", 2, 0, nil) // capacity 0 = unbounded
	c.Resource("s").JobDropped(sim.Time(1))
	v, ok := c.Err().(*Violation)
	if !ok || !strings.Contains(v.Detail, "unbounded") {
		t.Fatalf("Err = %v, want an unbounded-queue drop violation", c.Err())
	}
	// An unregistered station's drop is fine: bounds unknown.
	c2 := New("t")
	c2.Resource("other").JobDropped(sim.Time(1))
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
	c.Resource("s").JobStarted(sim.Time(10), 0)
	c.Resource("wire").FrameSent(1500, sim.Time(500), sim.Time(600), false)
	if c.Now() != sim.Time(10) {
		t.Fatalf("FrameSent advanced the clock to %v", c.Now())
	}
	c.Resource("s").JobStarted(sim.Time(20), 0) // must not be a regression
	if c.Err() != nil {
		t.Fatalf("future slot poisoned the clock: %v", c.Err())
	}
}

func TestFrameSentChecks(t *testing.T) {
	t.Run("slot before now", func(t *testing.T) {
		c := New("t").Soft()
		c.Resource("s").JobStarted(sim.Time(100), 0)
		c.Resource("wire").FrameSent(64, sim.Time(40), sim.Time(50), false)
		if v := c.Err().(*Violation); v.Rule != RuleClock {
			t.Fatalf("rule = %q, want clock-monotonic", v.Rule)
		}
	})
	t.Run("slot ends before start", func(t *testing.T) {
		c := New("t").Soft()
		c.Resource("wire").FrameSent(64, sim.Time(50), sim.Time(40), false)
		if v := c.Err().(*Violation); v.Rule != RuleCausality {
			t.Fatalf("rule = %q, want causality", v.Rule)
		}
	})
	t.Run("negative size", func(t *testing.T) {
		c := New("t").Soft()
		c.Resource("wire").FrameSent(-1, sim.Time(0), sim.Time(1), false)
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
// receiver; none may dereference it, and binding yields no observer.
func TestNilCheckerIsNoOp(t *testing.T) {
	var c *Checker
	c.Inject(1, 10, 0)
	c.Complete(1, 10, 0)
	c.Drop(2, 10, 0)
	c.RegisterStation("s", 1, 1, nil)
	if rs := c.Resource("s"); rs != nil {
		t.Fatalf("nil checker bound an observer: %+v", rs)
	}
	if ph := c.Phase("nat"); ph != 0 {
		t.Fatalf("nil checker Phase = %d, want 0", ph)
	}
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

// An observer bound before its station is registered checks the
// registered bounds: registration updates the bound state in place
// instead of replacing it with state the observer never sees.
func TestRegisterAfterBindChecksBounds(t *testing.T) {
	t.Run("capacity", func(t *testing.T) {
		eng := sim.NewEngine()
		st := sim.NewStation(eng, 1) // unbounded: the station never sheds
		c := New("t").Soft()
		st.Observe(c.Resource("s"))
		c.RegisterStation("s", 1, 1, func() (int, int) { return st.Busy(), st.QueueLen() })
		eng.At(0, func() {
			for i := 0; i < 3; i++ {
				st.Exec(10, nil) // one in service, two queued
			}
		})
		eng.Run()
		v, ok := c.Err().(*Violation)
		if !ok || v.Rule != RuleQueue || v.Station != "s" || !strings.Contains(v.Detail, "exceeds capacity 1") {
			t.Fatalf("Err = %v, want a queue-sanity violation past capacity 1 on s", c.Err())
		}
	})
	t.Run("unbounded drop", func(t *testing.T) {
		c := New("t").Soft()
		rs := c.Resource("s")
		c.RegisterStation("s", 1, 0, nil)
		rs.JobDropped(sim.Time(1))
		v, ok := c.Err().(*Violation)
		if !ok || v.Rule != RuleQueue || !strings.Contains(v.Detail, "unbounded") {
			t.Fatalf("Err = %v, want an unbounded-queue drop violation", c.Err())
		}
	})
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
