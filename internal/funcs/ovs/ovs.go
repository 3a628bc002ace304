// Package ovs implements the Open vSwitch benchmark of paper §3.4: a
// software switch with the classic OvS split between a slow path
// (priority-ordered wildcard classifier) and a fast path (exact-match
// megaflow cache). In the paper's setup the data plane is offloaded to
// the embedded switch in both the ConnectX-6 and the BlueField-2, with
// the host or SNIC CPU running only the control plane; the software
// datapath here is what the control plane programs and what handles
// cache-miss upcalls.
package ovs

import "fmt"

// Proto is an L4 protocol number.
type Proto uint8

// Common protocols.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// FiveTuple is the flow key.
type FiveTuple struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            Proto
}

// Action is what the switch does with a matching packet.
type Action struct {
	// OutPort < 0 drops the packet.
	OutPort int
}

// Drop is the discard action.
var Drop = Action{OutPort: -1}

// Rule is a wildcard classifier entry: each field matches if the masked
// packet field equals the masked rule field.
type Rule struct {
	Priority int
	Match    FiveTuple
	Mask     FiveTuple // 0 bits are wildcarded
	Action   Action
}

// Matches reports whether the rule covers the key.
func (r *Rule) Matches(k FiveTuple) bool {
	return k.SrcIP&r.Mask.SrcIP == r.Match.SrcIP&r.Mask.SrcIP &&
		k.DstIP&r.Mask.DstIP == r.Match.DstIP&r.Mask.DstIP &&
		k.SrcPort&r.Mask.SrcPort == r.Match.SrcPort&r.Mask.SrcPort &&
		k.DstPort&r.Mask.DstPort == r.Match.DstPort&r.Mask.DstPort &&
		k.Proto&r.Mask.Proto == r.Match.Proto&r.Mask.Proto
}

// Switch is the two-tier datapath.
type Switch struct {
	rules    []Rule // sorted by descending priority
	megaflow map[FiveTuple]Action
	// CacheCapacity bounds the megaflow cache; zero means unbounded.
	CacheCapacity int

	hits, misses, drops uint64
}

// NewSwitch returns an empty switch.
func NewSwitch() *Switch {
	return &Switch{megaflow: make(map[FiveTuple]Action)}
}

// AddRule installs a classifier rule, keeping priority order. Equal
// priorities keep insertion order (first installed wins), matching OvS
// semantics closely enough for the benchmark.
func (s *Switch) AddRule(r Rule) {
	idx := len(s.rules)
	for i, existing := range s.rules {
		if r.Priority > existing.Priority {
			idx = i
			break
		}
	}
	s.rules = append(s.rules, Rule{})
	copy(s.rules[idx+1:], s.rules[idx:])
	s.rules[idx] = r
	// A new rule can shadow cached decisions; OvS revalidates, we flush.
	s.FlushCache()
}

// NumRules returns the classifier size.
func (s *Switch) NumRules() int { return len(s.rules) }

// FlushCache clears the megaflow cache.
func (s *Switch) FlushCache() {
	s.megaflow = make(map[FiveTuple]Action)
}

// CacheLen returns the megaflow cache occupancy.
func (s *Switch) CacheLen() int { return len(s.megaflow) }

// Classify runs the full lookup: fast path first, slow path on miss with
// megaflow installation. Unmatched packets drop (OvS default for a
// table-miss with no controller).
func (s *Switch) Classify(k FiveTuple) Action {
	if a, ok := s.megaflow[k]; ok {
		s.hits++
		return a
	}
	s.misses++
	a := s.slowPath(k)
	if s.CacheCapacity == 0 || len(s.megaflow) < s.CacheCapacity {
		s.megaflow[k] = a
	}
	if a.OutPort < 0 {
		s.drops++
	}
	return a
}

func (s *Switch) slowPath(k FiveTuple) Action {
	for i := range s.rules {
		if s.rules[i].Matches(k) {
			return s.rules[i].Action
		}
	}
	return Drop
}

// Hits, Misses and Drops expose datapath counters.
func (s *Switch) Hits() uint64   { return s.hits }
func (s *Switch) Misses() uint64 { return s.misses }
func (s *Switch) Drops() uint64  { return s.drops }

// HitRate returns fast-path hit fraction.
func (s *Switch) HitRate() float64 {
	total := s.hits + s.misses
	if total == 0 {
		return 0
	}
	return float64(s.hits) / float64(total)
}

func (s *Switch) String() string {
	return fmt.Sprintf("ovs(%d rules, %d megaflows, %.1f%% hit)",
		len(s.rules), len(s.megaflow), s.HitRate()*100)
}

// GenForwardingRules installs a typical multi-tenant rule set: nTenants
// subnets each forwarded to a port, plus a low-priority drop-all. Returns
// flow keys that exercise every tenant for traffic generation.
func GenForwardingRules(s *Switch, nTenants int) []FiveTuple {
	keys := make([]FiveTuple, 0, nTenants)
	for i := 0; i < nTenants; i++ {
		subnet := uint32(0x0a000000 | i<<16) // 10.i.0.0/16
		s.AddRule(Rule{
			Priority: 100,
			Match:    FiveTuple{DstIP: subnet},
			Mask:     FiveTuple{DstIP: 0xffff0000},
			Action:   Action{OutPort: i % 8},
		})
		keys = append(keys, FiveTuple{
			SrcIP: 0xc0a80001, DstIP: subnet | 0x0101,
			SrcPort: 12345, DstPort: 80, Proto: ProtoTCP,
		})
	}
	s.AddRule(Rule{Priority: 0, Action: Drop}) // wildcard-all drop
	return keys
}
