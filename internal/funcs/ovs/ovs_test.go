package ovs

import (
	"testing"

	"repro/internal/sim"
)

func TestExactRuleMatch(t *testing.T) {
	s := NewSwitch()
	k := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}
	s.AddRule(Rule{
		Priority: 10, Match: k,
		Mask:   FiveTuple{SrcIP: ^uint32(0), DstIP: ^uint32(0), SrcPort: ^uint16(0), DstPort: ^uint16(0), Proto: ^Proto(0)},
		Action: Action{OutPort: 7},
	})
	if a := s.Classify(k); a.OutPort != 7 {
		t.Fatalf("action = %+v", a)
	}
	other := k
	other.DstPort = 99
	if a := s.Classify(other); a.OutPort != -1 {
		t.Fatalf("non-matching packet forwarded: %+v", a)
	}
}

func TestWildcardMatch(t *testing.T) {
	s := NewSwitch()
	// Forward everything to 10.5.0.0/16 regardless of ports.
	s.AddRule(Rule{
		Priority: 10,
		Match:    FiveTuple{DstIP: 0x0a050000},
		Mask:     FiveTuple{DstIP: 0xffff0000},
		Action:   Action{OutPort: 3},
	})
	for _, dst := range []uint32{0x0a050001, 0x0a05ffff} {
		if a := s.Classify(FiveTuple{DstIP: dst, SrcPort: uint16(dst)}); a.OutPort != 3 {
			t.Fatalf("subnet member %x not forwarded", dst)
		}
	}
	if a := s.Classify(FiveTuple{DstIP: 0x0a060001}); a.OutPort != -1 {
		t.Fatal("outside subnet forwarded")
	}
}

func TestPriorityOrdering(t *testing.T) {
	s := NewSwitch()
	anyMask := FiveTuple{}
	s.AddRule(Rule{Priority: 1, Mask: anyMask, Action: Action{OutPort: 1}})
	s.AddRule(Rule{Priority: 100, Mask: anyMask, Action: Action{OutPort: 2}})
	if a := s.Classify(FiveTuple{}); a.OutPort != 2 {
		t.Fatalf("high-priority rule lost: %+v", a)
	}
}

func TestMegaflowCache(t *testing.T) {
	s := NewSwitch()
	GenForwardingRules(s, 4)
	k := FiveTuple{DstIP: 0x0a000101, Proto: ProtoTCP}
	s.Classify(k)
	if s.Misses() != 1 || s.Hits() != 0 {
		t.Fatalf("first lookup: hits=%d misses=%d", s.Hits(), s.Misses())
	}
	for i := 0; i < 9; i++ {
		s.Classify(k)
	}
	if s.Hits() != 9 {
		t.Fatalf("cache hits = %d, want 9", s.Hits())
	}
	if s.HitRate() != 0.9 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestRuleInstallFlushesCache(t *testing.T) {
	s := NewSwitch()
	anyMask := FiveTuple{}
	s.AddRule(Rule{Priority: 1, Mask: anyMask, Action: Action{OutPort: 1}})
	k := FiveTuple{SrcIP: 42}
	s.Classify(k)
	if len(s.megaflow) != 1 {
		t.Fatal("megaflow not installed")
	}
	// A higher-priority rule must not be shadowed by the stale cache.
	s.AddRule(Rule{Priority: 50, Mask: anyMask, Action: Action{OutPort: 9}})
	if a := s.Classify(k); a.OutPort != 9 {
		t.Fatalf("stale megaflow served after rule install: %+v", a)
	}
}

func TestCacheCapacity(t *testing.T) {
	s := NewSwitch()
	s.AddRule(Rule{Priority: 1, Action: Action{OutPort: 1}})
	s.CacheCapacity = 10
	for i := uint32(0); i < 100; i++ {
		s.Classify(FiveTuple{SrcIP: i})
	}
	if len(s.megaflow) > 10 {
		t.Fatalf("cache grew to %d past capacity", len(s.megaflow))
	}
}

func TestDefaultDropAndCounters(t *testing.T) {
	s := NewSwitch()
	if a := s.Classify(FiveTuple{DstIP: 5}); a.OutPort != -1 {
		t.Fatal("empty switch must drop")
	}
	if s.Drops() != 1 {
		t.Fatalf("drops = %d", s.Drops())
	}
}

func TestGenForwardingRules(t *testing.T) {
	s := NewSwitch()
	keys := GenForwardingRules(s, 16)
	if len(keys) != 16 {
		t.Fatalf("keys = %d", len(keys))
	}
	if len(s.rules) != 17 { // 16 tenants + drop-all
		t.Fatalf("rules = %d", len(s.rules))
	}
	for i, k := range keys {
		a := s.Classify(k)
		if a.OutPort != i%8 {
			t.Fatalf("tenant %d routed to %d", i, a.OutPort)
		}
	}
}

// Property: classification is deterministic and cache-transparent — the
// cached answer always equals the slow-path answer.
func TestCacheTransparencyProperty(t *testing.T) {
	s := NewSwitch()
	GenForwardingRules(s, 8)
	r := sim.NewRNG(5)
	for i := 0; i < 5000; i++ {
		k := FiveTuple{
			SrcIP: uint32(r.Uint64()), DstIP: 0x0a000000 | uint32(r.Uint64n(1<<20)),
			SrcPort: uint16(r.Uint64()), DstPort: uint16(r.Uint64()),
			Proto: Proto(r.Uint64n(2))*11 + 6,
		}
		first := s.Classify(k)  // may be slow path
		second := s.Classify(k) // cached
		if first != second {
			t.Fatalf("cache changed decision for %+v: %+v vs %+v", k, first, second)
		}
	}
	if s.HitRate() < 0.4 {
		t.Fatalf("hit rate %v implausibly low for repeated keys", s.HitRate())
	}
}
