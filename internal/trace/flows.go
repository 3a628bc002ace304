// Per-flow decomposition of the aggregate traces.
//
// The hyperscaler traces say how many bits per second arrive; the flow
// layer says which *flow* each packet belongs to. That identity is what
// the offload control plane keys on: the eSwitch flow table holds
// per-flow rules, so SLO behavior under a bounded table is entirely a
// function of the flow mix — how many flows are live at once, how the
// packet mass splits between a few elephants and many mice, and how
// fast flows churn.
//
// FlowAssigner is a seeded, deterministic generator: a fixed set of
// active flow slots, each holding a flow with a Zipf-drawn remaining
// packet budget. Every packet picks a slot uniformly; exhausted or
// churned-out slots respawn a fresh flow (a new flow ID, whose first
// packet is flagged so the datapath can charge the rule-decision cost).
package trace

import (
	"fmt"

	"repro/internal/sim"
)

// FlowMix parameterizes the flow decomposition of a trace.
type FlowMix struct {
	// Seed makes the decomposition reproducible.
	Seed uint64
	// Concurrency is the number of simultaneously active flows.
	Concurrency int
	// ElephantFrac is the probability a freshly spawned flow is an
	// elephant (long-lived, many packets) rather than a mouse.
	ElephantFrac float64
	// MiceMaxPkts bounds a mouse's packet budget: 1 + Zipf over
	// [0, MiceMaxPkts), so most mice are a packet or two.
	MiceMaxPkts int
	// ElephantMinPkts / ElephantMaxPkts bound an elephant's packet
	// budget: Min + Zipf over the range.
	ElephantMinPkts int
	ElephantMaxPkts int
	// ZipfS is the Zipf exponent for both budget draws.
	ZipfS float64
	// ChurnPerPacket is the per-packet probability that one random
	// active flow is force-retired (connection reset, migration): its
	// slot respawns a new flow on next use. Churn is what turns a
	// bounded flow table into a moving target.
	ChurnPerPacket float64
}

// DefaultFlowMix returns the elephant/mice mix used by the offload
// experiments: a few percent elephants carrying most of the packet
// mass over thousands of concurrent flows.
func DefaultFlowMix() FlowMix {
	return FlowMix{
		Seed:            0xf10f,
		Concurrency:     2048,
		ElephantFrac:    0.06,
		MiceMaxPkts:     12,
		ElephantMinPkts: 512,
		ElephantMaxPkts: 16384,
		ZipfS:           1.25,
		ChurnPerPacket:  0.001,
	}
}

// Validate reports the first configuration problem, or nil.
func (m *FlowMix) Validate() error {
	switch {
	case m.Concurrency <= 0:
		return fmt.Errorf("trace: flow mix concurrency must be positive (got %d)", m.Concurrency)
	case m.ElephantFrac < 0 || m.ElephantFrac > 1:
		return fmt.Errorf("trace: elephant fraction must be in [0, 1] (got %g)", m.ElephantFrac)
	case m.MiceMaxPkts < 1:
		return fmt.Errorf("trace: mice max packets must be at least 1 (got %d)", m.MiceMaxPkts)
	case m.ElephantMinPkts < 1:
		return fmt.Errorf("trace: elephant min packets must be at least 1 (got %d)", m.ElephantMinPkts)
	case m.ElephantMaxPkts < m.ElephantMinPkts:
		return fmt.Errorf("trace: elephant max packets %d below min %d", m.ElephantMaxPkts, m.ElephantMinPkts)
	case m.ZipfS <= 0:
		return fmt.Errorf("trace: Zipf exponent must be positive (got %g)", m.ZipfS)
	case m.ChurnPerPacket < 0 || m.ChurnPerPacket >= 1:
		return fmt.Errorf("trace: churn per packet must be in [0, 1) (got %g)", m.ChurnPerPacket)
	}
	return nil
}

// flowSlot is one active-flow slot: the live flow's identity and its
// remaining packet budget. remaining == 0 means empty (respawn on use).
type flowSlot struct {
	id        uint64
	remaining int
}

// FlowAssigner hands out flow identities packet by packet.
type FlowAssigner struct {
	mix   FlowMix
	rng   *sim.RNG
	mice  *sim.Zipf
	eleph *sim.Zipf
	slots []flowSlot

	nextID  uint64
	started uint64
	churned uint64
}

// NewAssigner builds the generator; it panics on an invalid mix (the
// constructor discipline of the trace layer).
func (m FlowMix) NewAssigner() *FlowAssigner {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	rng := sim.NewRNG(m.Seed)
	a := &FlowAssigner{
		mix:   m,
		rng:   rng,
		mice:  sim.NewZipf(rng.Fork(1), uint64(m.MiceMaxPkts), m.ZipfS),
		slots: make([]flowSlot, m.Concurrency),
	}
	if span := m.ElephantMaxPkts - m.ElephantMinPkts; span > 0 {
		a.eleph = sim.NewZipf(rng.Fork(2), uint64(span)+1, m.ZipfS)
	}
	return a
}

// Next assigns the next packet to a flow. It returns the flow's ID and
// whether this packet is the first of the flow (a brand-new flow ID:
// the packet that pays the slow-path rule-decision cost).
func (a *FlowAssigner) Next() (id uint64, first bool) {
	// Churn: with the configured probability, force-retire one random
	// active flow. Its slot respawns a fresh flow when next picked.
	if a.mix.ChurnPerPacket > 0 && a.rng.Float64() < a.mix.ChurnPerPacket {
		s := &a.slots[a.rng.Intn(len(a.slots))]
		if s.remaining > 0 {
			s.remaining = 0
			a.churned++
		}
	}
	s := &a.slots[a.rng.Intn(len(a.slots))]
	if s.remaining == 0 {
		a.spawn(s)
		first = true
	}
	s.remaining--
	return s.id, first
}

// spawn fills a slot with a fresh flow and its packet budget.
func (a *FlowAssigner) spawn(s *flowSlot) {
	a.nextID++
	a.started++
	s.id = a.nextID
	if a.rng.Float64() < a.mix.ElephantFrac {
		s.remaining = a.mix.ElephantMinPkts
		if a.eleph != nil {
			s.remaining += int(a.eleph.Next())
		}
	} else {
		s.remaining = 1 + int(a.mice.Next())
	}
}

// FlowsStarted returns how many distinct flows have been spawned.
func (a *FlowAssigner) FlowsStarted() uint64 { return a.started }

// FlowsChurned returns how many flows were force-retired by churn.
func (a *FlowAssigner) FlowsChurned() uint64 { return a.churned }
