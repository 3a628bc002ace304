package trace

import (
	"strings"
	"testing"
)

func TestFlowAssignerDeterministic(t *testing.T) {
	mix := DefaultFlowMix()
	a, b := mix.NewAssigner(), mix.NewAssigner()
	for i := 0; i < 20000; i++ {
		aid, afirst := a.Next()
		bid, bfirst := b.Next()
		if aid != bid || afirst != bfirst {
			t.Fatalf("packet %d diverged: (%d,%v) vs (%d,%v)", i, aid, afirst, bid, bfirst)
		}
	}
	if a.FlowsStarted() != b.FlowsStarted() || a.FlowsChurned() != b.FlowsChurned() {
		t.Fatalf("stats diverged: %d/%d vs %d/%d",
			a.FlowsStarted(), a.FlowsChurned(), b.FlowsStarted(), b.FlowsChurned())
	}
}

func TestFlowAssignerSeedChangesStream(t *testing.T) {
	mix := DefaultFlowMix()
	a := mix.NewAssigner()
	mix.Seed++
	b := mix.NewAssigner()
	same := true
	for i := 0; i < 1000; i++ {
		aid, _ := a.Next()
		bid, _ := b.Next()
		if aid != bid {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same flow stream")
	}
}

func TestFlowFirstFlagMarksEachFlowOnce(t *testing.T) {
	mix := DefaultFlowMix()
	mix.Concurrency = 64
	a := mix.NewAssigner()
	seen := make(map[uint64]bool)
	for i := 0; i < 50000; i++ {
		id, first := a.Next()
		if first {
			if seen[id] {
				t.Fatalf("flow %d flagged first twice", id)
			}
			seen[id] = true
		} else if !seen[id] {
			t.Fatalf("flow %d seen before its first packet", id)
		}
	}
	if uint64(len(seen)) != a.FlowsStarted() {
		t.Fatalf("first flags %d disagree with FlowsStarted %d", len(seen), a.FlowsStarted())
	}
}

// The mix regression test: with the default parameters, a small share
// of elephant flows must carry the bulk of the packet mass — the
// defining property of an elephant/mice decomposition.
//
// A mouse sends at most MiceMaxPkts packets, so a flow seen sending more
// is an elephant; churn may retire an elephant before it sends that
// many, which only makes both checks stricter.
func TestDefaultMixElephantsCarryTheMass(t *testing.T) {
	mix := DefaultFlowMix()
	a := mix.NewAssigner()
	const n = 300000
	var perFlow []int // flow IDs are handed out densely from 1
	for i := 0; i < n; i++ {
		id, _ := a.Next()
		for uint64(len(perFlow)) <= id {
			perFlow = append(perFlow, 0)
		}
		perFlow[id]++
	}
	var elephants, elephantPkts int
	for _, pkts := range perFlow {
		if pkts > mix.MiceMaxPkts {
			elephants++
			elephantPkts += pkts
		}
	}
	flowShare := float64(elephants) / float64(a.FlowsStarted())
	if flowShare > 0.12 {
		t.Fatalf("elephants should be a small share of flows, got %.3f", flowShare)
	}
	if mass := float64(elephantPkts) / n; mass < 0.5 {
		t.Fatalf("elephants should carry most of the packet mass, got %.3f", mass)
	}
}

// Mean packets-per-flow regression, mirroring the trace.Scale tests:
// the spawn rate is pinned by the budget distributions, so flows
// started per packet must stay near its calibrated value.
func TestDefaultMixFlowArrivalRateStable(t *testing.T) {
	a := DefaultFlowMix().NewAssigner()
	const n = 300000
	for i := 0; i < n; i++ {
		a.Next()
	}
	perPkt := float64(a.FlowsStarted()) / float64(n)
	if perPkt < 0.05 || perPkt > 0.40 {
		t.Fatalf("flows started per packet %.4f outside calibrated band", perPkt)
	}
}

func TestChurnIncreasesFlowArrivals(t *testing.T) {
	const n = 200000
	calm := DefaultFlowMix()
	calm.ChurnPerPacket = 0
	churny := DefaultFlowMix()
	churny.ChurnPerPacket = 0.02

	a, b := calm.NewAssigner(), churny.NewAssigner()
	for i := 0; i < n; i++ {
		a.Next()
		b.Next()
	}
	if a.FlowsChurned() != 0 {
		t.Fatalf("zero churn rate still churned %d flows", a.FlowsChurned())
	}
	if b.FlowsChurned() == 0 {
		t.Fatal("churny mix never churned")
	}
	if b.FlowsStarted() <= a.FlowsStarted() {
		t.Fatalf("churn should raise flow arrivals: calm %d vs churny %d",
			a.FlowsStarted(), b.FlowsStarted())
	}
}

func TestFlowMixValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FlowMix)
		want string
	}{
		{"zero concurrency", func(m *FlowMix) { m.Concurrency = 0 }, "concurrency"},
		{"bad elephant frac", func(m *FlowMix) { m.ElephantFrac = 1.5 }, "elephant fraction"},
		{"zero mice", func(m *FlowMix) { m.MiceMaxPkts = 0 }, "mice"},
		{"zero elephant min", func(m *FlowMix) { m.ElephantMinPkts = 0 }, "elephant min"},
		{"max below min", func(m *FlowMix) { m.ElephantMaxPkts = 1 }, "below min"},
		{"bad zipf", func(m *FlowMix) { m.ZipfS = 0 }, "Zipf"},
		{"bad churn", func(m *FlowMix) { m.ChurnPerPacket = 1 }, "churn"},
	}
	for _, tc := range cases {
		mix := DefaultFlowMix()
		tc.mut(&mix)
		err := mix.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
	mix := DefaultFlowMix()
	if err := mix.Validate(); err != nil {
		t.Fatalf("default mix should validate: %v", err)
	}
}

func TestNewAssignerPanicsOnBadMix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAssigner with invalid mix should panic")
		}
	}()
	mix := DefaultFlowMix()
	mix.Concurrency = -1
	mix.NewAssigner()
}
