package flow

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestStaticPolicyKeys(t *testing.T) {
	if k := (StaticFunction{}).Key(); k != "static-func" {
		t.Fatalf("StaticFunction key %q", k)
	}
	if k := (StaticThreshold{K: 8}).Key(); k != "static-flow@8" {
		t.Fatalf("StaticThreshold key %q", k)
	}
	// Sub-1 thresholds normalize to 1 in both Key and Threshold.
	p := StaticThreshold{K: 0}
	if p.Key() != "static-flow@1" || p.Threshold() != 1 {
		t.Fatalf("StaticThreshold{0} should normalize to 1: %q / %d", p.Key(), p.Threshold())
	}
	a := NewAdaptive(DefaultAdaptiveConfig())
	if k := a.Key(); !strings.HasPrefix(k, "adaptive@") {
		t.Fatalf("Adaptive key %q", k)
	}
}

func snapAt(now sim.Duration, occ int, c Counters, drops uint64) Snapshot {
	return Snapshot{
		Now:       sim.Time(0).Add(now),
		Occupancy: occ,
		Capacity:  100,
		Counters:  c,
		Drops:     drops,
	}
}

func TestAdaptiveRaisesOnChurn(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	cfg.Initial, cfg.Min, cfg.Max = 4, 1, 12
	cfg.ChurnTolerance = 2
	a := NewAdaptive(cfg)

	// Interval with 10 hot evictions: far beyond tolerance —
	// multiplicative (1.5x) raise.
	a.Observe(snapAt(sim.Millisecond, 50, Counters{Evictions: 10, Thrash: 10}, 0))
	if a.Threshold() != 6 {
		t.Fatalf("threshold after churn: want 6, got %d", a.Threshold())
	}
	// More churn: keeps raising, then clamps at Max (6 -> 9 -> 12 -> 12).
	a.Observe(snapAt(2*sim.Millisecond, 50, Counters{Evictions: 30, Thrash: 30}, 0))
	a.Observe(snapAt(3*sim.Millisecond, 50, Counters{Evictions: 60, Thrash: 60}, 0))
	a.Observe(snapAt(4*sim.Millisecond, 50, Counters{Evictions: 90, Thrash: 90}, 0))
	a.Observe(snapAt(5*sim.Millisecond, 50, Counters{Evictions: 120, Thrash: 120}, 0))
	if a.Threshold() != cfg.Max {
		t.Fatalf("threshold should clamp at Max %d, got %d", cfg.Max, a.Threshold())
	}
	// A raise from K=1 still moves: 1.5x rounds up to at least +1.
	b := NewAdaptive(AdaptiveConfig{Initial: 1, Min: 1, Max: 8, HighOccFrac: 0.9, ChurnTolerance: 0})
	b.Observe(snapAt(sim.Millisecond, 50, Counters{Thrash: 5}, 0))
	if b.Threshold() != 2 {
		t.Fatalf("raise from 1 should reach 2, got %d", b.Threshold())
	}
}

func TestAdaptiveLowersWithHeadroom(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	cfg.Initial, cfg.Min, cfg.Max = 4, 1, 64
	a := NewAdaptive(cfg)

	// Quiet table, slow path still seeing misses: additive decrease to
	// Min, one step per interval.
	lowers := 0
	for i := 1; i <= 10; i++ {
		before := a.Threshold()
		a.Observe(snapAt(sim.Duration(i)*sim.Millisecond, 10, Counters{Misses: uint64(20 * i)}, 0))
		if k := a.Threshold(); k < before {
			if k != before-1 {
				t.Fatalf("interval %d lowered K from %d to %d, want one step", i, before, k)
			}
			lowers++
		}
	}
	if a.Threshold() != cfg.Min {
		t.Fatalf("threshold should decay to Min %d, got %d", cfg.Min, a.Threshold())
	}
	if lowers != 3 {
		t.Fatalf("expected 3 lowering steps (4→1), got %d", lowers)
	}
}

func TestAdaptiveHoldsWhenPressuredWithoutChurn(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	cfg.Initial = 4
	a := NewAdaptive(cfg)

	// Table nearly full (no headroom) but no churn: hold, don't lower.
	a.Observe(snapAt(sim.Millisecond, 95, Counters{Misses: 100}, 5))
	if a.Threshold() != 4 {
		t.Fatalf("pressured-but-calm interval should hold K: got %d", a.Threshold())
	}
	// Pressured with any hot churn: back off.
	a.Observe(snapAt(2*sim.Millisecond, 95, Counters{Misses: 150, Evictions: 1, Thrash: 1}, 5))
	if a.Threshold() != 6 {
		t.Fatalf("pressured churny interval should raise K: got %d", a.Threshold())
	}
}

func TestAdaptiveConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*AdaptiveConfig)
	}{
		{"min below 1", func(c *AdaptiveConfig) { c.Min = 0 }},
		{"max below min", func(c *AdaptiveConfig) { c.Max = c.Min - 1 }},
		{"initial outside range", func(c *AdaptiveConfig) { c.Initial = c.Max + 1 }},
		{"bad occupancy fraction", func(c *AdaptiveConfig) { c.HighOccFrac = 1.5 }},
	}
	for _, tc := range cases {
		cfg := DefaultAdaptiveConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	cfg := DefaultAdaptiveConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default adaptive config should validate: %v", err)
	}
}

func TestControllerRequestsInsertAtThreshold(t *testing.T) {
	eng := sim.NewEngine()
	tbl := NewTable(eng, DefaultTableConfig())
	ctl := NewController(tbl, StaticThreshold{K: 3})

	if n := ctl.OnMiss(42); n != 1 {
		t.Fatalf("first miss should return 1, got %d", n)
	}
	ctl.OnMiss(42)
	if tbl.Pending(42) {
		t.Fatal("insert requested before the threshold")
	}
	ctl.OnMiss(42)
	if !tbl.Pending(42) {
		t.Fatal("insert not requested at the threshold")
	}
	// Counts are per flow: another flow starts from its first packet.
	if n := ctl.OnMiss(7); n != 1 {
		t.Fatalf("first miss of a second flow should return 1, got %d", n)
	}
}

func TestControllerTickTracksThresholdRange(t *testing.T) {
	eng := sim.NewEngine()
	tbl := NewTable(eng, DefaultTableConfig())
	cfg := DefaultAdaptiveConfig()
	cfg.Initial, cfg.Min, cfg.Max = 4, 1, 64
	ctl := NewController(tbl, NewAdaptive(cfg))

	// One quiet interval with slow-path misses lowers K to 3. The miss
	// counter lives in the table, so the datapath order is lookup-then-miss.
	if tbl.Lookup(1, eng.Now()) {
		t.Fatal("empty table should miss")
	}
	ctl.OnMiss(1)
	ctl.Tick(eng.Now().Add(sim.Millisecond))
	lo, hi, final := ctl.ThresholdRange()
	if lo != 3 || hi != 4 || final != 3 {
		t.Fatalf("threshold range: want (3, 4, 3), got (%d, %d, %d)", lo, hi, final)
	}
}
