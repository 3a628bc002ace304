package invariant

import (
	"fmt"

	"repro/internal/sim"
)

// Flow-offload datapath conservation for `-exp offload` runs: every
// packet that enters the eSwitch is classified onto exactly one path —
// hardware fast path, software slow path, or dropped at a full
// slow-path queue — and the bounded flow table never holds more rules
// than its capacity (nor queues more inserts than its slot budget).
// The laws:
//
//   - a packet is classified exactly once (fast xor slow), and only a
//     slow-path packet can be dropped at the service queue;
//   - fast + slow == injected at end of run;
//   - 0 <= table occupancy <= capacity at every observation;
//   - 0 <= pending inserts <= insert queue capacity at every
//     observation.
//
// The ledger allocates lazily on first classification, so non-offload
// runs pay nothing.

// Per-packet datapath classifications.
const (
	pathAbsent uint8 = iota
	pathFast
	pathSlow
)

// flowLedger is the datapath classification accounting. path holds
// each packet's classification, indexed by its sequence number.
type flowLedger struct {
	fast, slow, dropped uint64
	path                []uint8
	occPeak             int
}

// ensureFlows lazily allocates the flow ledger.
func (c *Checker) ensureFlows() {
	if c.flows == nil {
		c.flows = &flowLedger{}
	}
}

// classify records packet seq's datapath, or reports a violation if it
// was already classified or breaks the dense numbering.
func (c *Checker) classify(seq uint64, path uint8, name string, now sim.Time) bool {
	p := dense(&c.flows.path, seq)
	switch {
	case p == nil:
		c.violate(notDense(RuleFlow, seq, len(c.flows.path), now))
		return false
	case *p != pathAbsent:
		c.violate(&Violation{Rule: RuleFlow, Time: now, Request: seq,
			Detail: fmt.Sprintf("classified %s after already being classified (%d)", name, *p)})
		return false
	}
	*p = path
	return true
}

// FlowFast records a packet taking the hardware fast path (resident
// eSwitch rule). Sequence numbers are dense per run, as for Inject: one
// more than 1<<20 past the datapath ledger's end is a RuleFlow
// violation. Nil-safe.
func (c *Checker) FlowFast(seq uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	c.ensureFlows()
	if c.classify(seq, pathFast, "fast-path", now) {
		c.flows.fast++
	}
}

// FlowSlow records a packet taking the software slow path (flow-table
// miss). Sequence numbers are dense per run, as for FlowFast. Nil-safe.
func (c *Checker) FlowSlow(seq uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	c.ensureFlows()
	if c.classify(seq, pathSlow, "slow-path", now) {
		c.flows.slow++
	}
}

// FlowSlowDrop records a slow-path packet shed at a full service queue.
// Only slow-path packets can be dropped there — the fast path never
// queues. Nil-safe.
func (c *Checker) FlowSlowDrop(seq uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	c.ensureFlows()
	if p := at(c.flows.path, seq); p != pathSlow {
		c.violate(&Violation{Rule: RuleFlow, Time: now, Request: seq,
			Detail: fmt.Sprintf("dropped on the slow path without slow-path classification (%d)", p)})
		return
	}
	c.flows.dropped++
}

// FlowTableOccupancy validates a flow-table observation: occupancy
// within [0, capacity] and pending inserts within [0, queueCap].
// Nil-safe.
func (c *Checker) FlowTableOccupancy(occupancy, capacity, pending, queueCap int, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	c.ensureFlows()
	switch {
	case occupancy < 0:
		c.violate(&Violation{Rule: RuleFlow, Time: now, Station: "flow-table",
			Detail: fmt.Sprintf("occupancy %d is negative", occupancy)})
	case capacity > 0 && occupancy > capacity:
		c.violate(&Violation{Rule: RuleFlow, Time: now, Station: "flow-table",
			Detail: fmt.Sprintf("occupancy %d exceeds capacity %d", occupancy, capacity)})
	}
	switch {
	case pending < 0:
		c.violate(&Violation{Rule: RuleFlow, Time: now, Station: "flow-table",
			Detail: fmt.Sprintf("pending inserts %d is negative", pending)})
	case queueCap > 0 && pending > queueCap:
		c.violate(&Violation{Rule: RuleFlow, Time: now, Station: "flow-table",
			Detail: fmt.Sprintf("pending inserts %d exceed queue capacity %d", pending, queueCap)})
	}
	if occupancy > c.flows.occPeak {
		c.flows.occPeak = occupancy
	}
}

// FlowFastCount returns packets classified onto the fast path. Nil-safe.
func (c *Checker) FlowFastCount() uint64 {
	if c == nil || c.flows == nil {
		return 0
	}
	return c.flows.fast
}

// FlowSlowCount returns packets classified onto the slow path. Nil-safe.
func (c *Checker) FlowSlowCount() uint64 {
	if c == nil || c.flows == nil {
		return 0
	}
	return c.flows.slow
}

// finishFlows runs the end-of-run datapath conservation check: every
// injected packet was classified exactly once.
func (c *Checker) finishFlows(now sim.Time) {
	if c.flows == nil {
		return
	}
	if c.flows.fast+c.flows.slow != c.injected {
		c.violate(&Violation{Rule: RuleFlow, Time: now,
			Detail: fmt.Sprintf("fast %d + slow %d != injected %d",
				c.flows.fast, c.flows.slow, c.injected)})
	}
	if c.flows.dropped != c.dropped {
		c.violate(&Violation{Rule: RuleFlow, Time: now,
			Detail: fmt.Sprintf("slow-path drops %d disagree with ledger drops %d",
				c.flows.dropped, c.dropped)})
	}
}
