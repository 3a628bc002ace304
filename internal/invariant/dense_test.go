package invariant

import (
	"errors"
	"strings"
	"testing"
)

// The request, phase and datapath ledgers are slices indexed by
// sequence number. A number far past a table's end breaks the dense
// numbering every driver follows; it must be reported under the
// ledger's own rule, not grown into a table of a trillion entries.
func TestStraySequenceNumberIsNotDense(t *testing.T) {
	const stray = uint64(1) << 40
	for _, tc := range []struct {
		name  string
		drive func(c *Checker)
		rule  Rule
		size  func(c *Checker) int
	}{
		{"inject", func(c *Checker) { c.Inject(stray, 0, 0) }, RuleRequestState,
			func(c *Checker) int { return len(c.state) }},
		{"phase enter", func(c *Checker) { c.PhaseEnter(c.Phase("nat"), stray, 0) }, RulePhase,
			func(c *Checker) int { return len(c.inPhase) }},
		{"flow fast", func(c *Checker) { c.FlowFast(stray, 0) }, RuleFlow,
			func(c *Checker) int { return len(c.flows.path) }},
		{"flow slow", func(c *Checker) { c.FlowSlow(stray, 0) }, RuleFlow,
			func(c *Checker) int { return len(c.flows.path) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New("stray").Soft()
			tc.drive(c)
			var v *Violation
			if !errors.As(c.Err(), &v) || v.Rule != tc.rule {
				t.Fatalf("err = %v, want a %s violation", c.Err(), tc.rule)
			}
			if v.Request != stray || !strings.Contains(v.Detail, "not dense") {
				t.Fatalf("violation = %+v, want request %d and a not-dense detail", v, stray)
			}
			if n := tc.size(c); n != 0 {
				t.Fatalf("ledger grew to %d entries for a stray sequence number", n)
			}
		})
	}
}

// Sequence numbers within the gap grow the table, sparse ones included.
func TestSequenceNumbersWithinGapGrowLedger(t *testing.T) {
	c := New("gap").Soft()
	c.Inject(maxSeqGap, 10, 0)
	c.Complete(maxSeqGap, 10, 1)
	if err := c.Finish(2); err != nil {
		t.Fatalf("a sequence number exactly maxSeqGap past the end was rejected: %v", err)
	}
	if len(c.state) != maxSeqGap+1 {
		t.Fatalf("state ledger holds %d entries, want %d", len(c.state), maxSeqGap+1)
	}
}
