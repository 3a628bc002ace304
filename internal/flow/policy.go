// Offload threshold policies and the control loop that drives them.
//
// The threshold K is "how many slow-path packets must a flow show
// before it earns a rule". K = 1 offloads everything (the static
// per-function advisor's behavior); large K offloads only elephants.
// The adaptive policy moves K online from the table's own counters, in
// the spirit of chen622's SmartNICSimulator threshold feedback:
// multiplicative increase when the table thrashes, additive decrease
// when the slow path still carries traffic and the table has headroom.
package flow

import (
	"fmt"

	"repro/internal/sim"
)

// Snapshot is one control-interval observation of the table and
// datapath, with cumulative counters — policies diff consecutive
// snapshots to get per-interval rates.
type Snapshot struct {
	// Now is the virtual time of the observation.
	Now sim.Time
	// Occupancy / Capacity / PendingInserts mirror the table accessors.
	Occupancy      int
	Capacity       int
	PendingInserts int
	// Counters is the table's cumulative op accounting.
	Counters Counters
	// Drops is the cumulative slow-path drop count (full service queue).
	Drops uint64
}

// Policy decides the offload threshold. Observe is called once per
// control interval; Threshold may change between calls for adaptive
// policies. Key must serialize the policy's identity and parameters
// (it feeds experiment labels and memoization keys).
type Policy interface {
	Key() string
	Threshold() int
	Observe(s Snapshot)
}

// StaticFunction is the per-function advisor's behavior ported to flow
// granularity: offload every flow from its first packet (K = 1).
type StaticFunction struct{}

// Key identifies the policy.
func (StaticFunction) Key() string { return "static-func" }

// Threshold is always 1: every first packet requests a rule.
func (StaticFunction) Threshold() int { return 1 }

// Observe ignores feedback; the policy is open-loop.
func (StaticFunction) Observe(Snapshot) {}

// StaticThreshold offloads a flow after a fixed K slow-path packets —
// a hand-tuned per-flow filter that never adapts.
type StaticThreshold struct {
	// K is the fixed threshold; values below 1 behave as 1.
	K int
}

func (p StaticThreshold) k() int {
	if p.K < 1 {
		return 1
	}
	return p.K
}

// Key identifies the policy and its parameter.
func (p StaticThreshold) Key() string { return fmt.Sprintf("static-flow@%d", p.k()) }

// Threshold returns the fixed K.
func (p StaticThreshold) Threshold() int { return p.k() }

// Observe ignores feedback; the policy is open-loop.
func (StaticThreshold) Observe(Snapshot) {}

// AdaptiveConfig parameterizes the AIMD threshold controller.
type AdaptiveConfig struct {
	// Initial is the starting threshold; Min and Max clamp it.
	Initial int
	Min     int
	Max     int
	// HighOccFrac is the occupancy-plus-pending fraction of capacity at
	// which the table counts as under pressure.
	HighOccFrac float64
	// ChurnTolerance is the per-interval thrash+reject+abort budget
	// considered benign; above it the controller backs off.
	ChurnTolerance uint64
}

// DefaultAdaptiveConfig returns the controller tuning used by the
// offload experiments.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Initial:        4,
		Min:            1,
		Max:            32,
		HighOccFrac:    0.9,
		ChurnTolerance: 0,
	}
}

// Validate reports the first configuration problem, or nil.
func (c *AdaptiveConfig) Validate() error {
	switch {
	case c.Min < 1:
		return fmt.Errorf("flow: adaptive Min threshold must be at least 1 (got %d)", c.Min)
	case c.Max < c.Min:
		return fmt.Errorf("flow: adaptive Max %d below Min %d", c.Max, c.Min)
	case c.Initial < c.Min || c.Initial > c.Max:
		return fmt.Errorf("flow: adaptive Initial %d outside [%d, %d]", c.Initial, c.Min, c.Max)
	case c.HighOccFrac <= 0 || c.HighOccFrac > 1:
		return fmt.Errorf("flow: adaptive HighOccFrac must be in (0, 1] (got %g)", c.HighOccFrac)
	}
	return nil
}

// Adaptive moves the threshold online: multiplicative increase (offload
// fewer flows) when the interval shows table churn beyond tolerance or
// pressure at high occupancy, additive decrease (offload more) when the
// slow path still sees traffic and the table has headroom.
type Adaptive struct {
	cfg  AdaptiveConfig
	k    int
	last Snapshot
}

// NewAdaptive builds the controller; it panics on an invalid config.
func NewAdaptive(cfg AdaptiveConfig) *Adaptive {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Adaptive{cfg: cfg, k: cfg.Initial}
}

// Key identifies the policy and its tuning.
func (a *Adaptive) Key() string {
	return fmt.Sprintf("adaptive@%d[%d..%d]", a.cfg.Initial, a.cfg.Min, a.cfg.Max)
}

// Threshold returns the current K.
func (a *Adaptive) Threshold() int { return a.k }

// Observe consumes one control-interval snapshot and moves K. The churn
// signal counts only *harmful* events — still-hot rules evicted
// (thrash) and insert requests refused or aborted (the serialized rule
// path oversubscribed) — not plain evictions, which mostly reclaim dead
// flows and are benign.
func (a *Adaptive) Observe(s Snapshot) {
	churn := (s.Counters.Thrash - a.last.Counters.Thrash) +
		(s.Counters.InsertRejects - a.last.Counters.InsertRejects) +
		(s.Counters.InsertAborts - a.last.Counters.InsertAborts)
	misses := s.Counters.Misses - a.last.Counters.Misses
	drops := s.Drops - a.last.Drops
	a.last = s

	pressured := float64(s.Occupancy+s.PendingInserts) >= a.cfg.HighOccFrac*float64(s.Capacity)
	switch {
	case churn > a.cfg.ChurnTolerance || (pressured && churn > 0):
		// The table is thrashing or the insert path is oversubscribed:
		// admitting more flows only wastes rule updates. Back off
		// multiplicatively (gently — 1.5x — so the controller hunts the
		// admission boundary instead of vaulting past it).
		if a.k < a.cfg.Max {
			next := a.k + a.k/2
			if next == a.k {
				next++
			}
			if next > a.cfg.Max {
				next = a.cfg.Max
			}
			a.k = next
		}
	case (misses > 0 || drops > 0) && !pressured:
		// The slow path still carries traffic and the table has
		// headroom: admit more flows, one step at a time.
		if a.k > a.cfg.Min {
			a.k--
		}
	}
}

// Controller mediates between the slow-path datapath and the table: it
// tracks per-flow slow-path packet counts, requests rule insertion once
// a flow crosses the policy threshold, and feeds the policy a snapshot
// every control interval.
type Controller struct {
	tbl    *Table
	pol    Policy
	counts map[uint64]uint32
	drops  uint64

	minK, maxK int
}

// NewController wires a policy to a table.
func NewController(tbl *Table, pol Policy) *Controller {
	if tbl == nil || pol == nil {
		panic("flow: NewController needs a table and a policy")
	}
	k := pol.Threshold()
	return &Controller{tbl: tbl, pol: pol, counts: make(map[uint64]uint32), minK: k, maxK: k}
}

// OnMiss records one slow-path packet for the flow and requests rule
// insertion once the flow's count reaches the policy threshold. It
// returns the flow's updated slow-path packet count (1 = first packet
// ever seen from this flow, which pays the rule-decision cost).
func (c *Controller) OnMiss(flowID uint64) int {
	n := c.counts[flowID] + 1
	c.counts[flowID] = n
	if int(n) >= c.pol.Threshold() {
		c.tbl.RequestInsert(flowID, int(n))
	}
	return int(n)
}

// NoteDrop records a slow-path drop (full service queue) for the next
// snapshot.
func (c *Controller) NoteDrop() { c.drops++ }

// Tick runs one control interval: age out idle rules (the periodic
// sweep real offload datapaths run), then assemble a snapshot and let
// the policy observe it. The run loop arms it on the engine's
// control-interval ticker.
func (c *Controller) Tick(now sim.Time) {
	c.tbl.ExpireIdle(now)
	c.pol.Observe(Snapshot{
		Now:            now,
		Occupancy:      c.tbl.Occupancy(),
		Capacity:       c.tbl.Capacity(),
		PendingInserts: c.tbl.PendingInserts(),
		Counters:       c.tbl.Counters(),
		Drops:          c.drops,
	})
	k := c.pol.Threshold()
	if k < c.minK {
		c.minK = k
	}
	if k > c.maxK {
		c.maxK = k
	}
}

// ThresholdRange reports the minimum, maximum and final threshold the
// policy used across the run.
func (c *Controller) ThresholdRange() (minK, maxK, final int) {
	return c.minK, c.maxK, c.pol.Threshold()
}
