package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestFixedSize(t *testing.T) {
	r := sim.NewRNG(1)
	f := Fixed(1024)
	for i := 0; i < 10; i++ {
		if f.Next(r) != 1024 {
			t.Fatal("fixed dist not fixed")
		}
	}
	if f.Mean() != 1024 {
		t.Fatal("fixed mean wrong")
	}
}

func TestBimodalShape(t *testing.T) {
	r := sim.NewRNG(2)
	b := CTUMixed()
	var small, large, mid int
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		s := b.Next(r)
		sum += float64(s)
		switch {
		case s == 64:
			small++
		case s == 1500:
			large++
		default:
			mid++
		}
	}
	if frac := float64(small) / n; math.Abs(frac-0.45) > 0.02 {
		t.Errorf("small fraction = %v, want ~0.45", frac)
	}
	if frac := float64(large) / n; math.Abs(frac-0.45) > 0.02 {
		t.Errorf("large fraction = %v, want ~0.45", frac)
	}
	if math.Abs(sum/n-b.Mean())/b.Mean() > 0.02 {
		t.Errorf("empirical mean %v vs analytic %v", sum/n, b.Mean())
	}
}

func TestArrivalsPoissonMeanRate(t *testing.T) {
	a := NewPoissonArrivals(3)
	const size, rate = 1500, 10e9
	var sum sim.Duration
	const n = 50000
	for i := 0; i < n; i++ {
		sum += a.Gap(size, rate)
	}
	want := sim.DurationOf(size, rate)
	got := sum / n
	if math.Abs(float64(got-want))/float64(want) > 0.03 {
		t.Fatalf("mean gap = %v, want %v", got, want)
	}
}

func TestHyperscalerTraceMeanExact(t *testing.T) {
	tr := NewHyperscalerTrace(DefaultHyperscalerConfig())
	if m := tr.MeanGbps(); math.Abs(m-0.76) > 1e-9 {
		t.Fatalf("trace mean = %v, want exactly 0.76 (rescaled)", m)
	}
	if tr.PeakGbps() <= 2*tr.MeanGbps() {
		t.Fatalf("trace not bursty: peak %v vs mean %v", tr.PeakGbps(), tr.MeanGbps())
	}
	if len(tr.RatesGbps) != 1440 {
		t.Fatalf("points = %d, want 1440", len(tr.RatesGbps))
	}
	for i, v := range tr.RatesGbps {
		if v < 0 {
			t.Fatalf("negative rate at %d", i)
		}
	}
}

func TestHyperscalerTraceDeterministic(t *testing.T) {
	a := NewHyperscalerTrace(DefaultHyperscalerConfig())
	b := NewHyperscalerTrace(DefaultHyperscalerConfig())
	for i := range a.RatesGbps {
		if a.RatesGbps[i] != b.RatesGbps[i] {
			t.Fatal("trace generation not deterministic")
		}
	}
}

func TestHyperscalerCompressAndSubsample(t *testing.T) {
	tr := NewHyperscalerTrace(DefaultHyperscalerConfig())
	c := tr.Compress(sim.Millisecond)
	if c.Duration() != sim.Duration(1440)*sim.Millisecond {
		t.Fatalf("compressed duration = %v", c.Duration())
	}
	if math.Abs(c.MeanGbps()-tr.MeanGbps()) > 1e-12 {
		t.Fatal("compression changed rates")
	}
	s := tr.Subsample(10)
	if len(s.RatesGbps) != 144 {
		t.Fatalf("subsample kept %d points, want 144", len(s.RatesGbps))
	}
}

func TestHyperscalerSeries(t *testing.T) {
	tr := NewHyperscalerTrace(DefaultHyperscalerConfig())
	ts := tr.Series()
	if ts.Len() != len(tr.RatesGbps) {
		t.Fatal("series length mismatch")
	}
	if math.Abs(ts.Mean()-0.76) > 1e-9 {
		t.Fatalf("series mean = %v", ts.Mean())
	}
}

func TestYCSBMixes(t *testing.T) {
	for _, tc := range []struct {
		w    YCSBWorkload
		want float64
	}{
		{WorkloadA, 0.50}, {WorkloadB, 0.95}, {WorkloadC, 1.00},
	} {
		g := NewYCSBGen(tc.w, 1000, 1024, 7)
		reads := 0
		const n = 20000
		for i := 0; i < n; i++ {
			op := g.Next()
			if op.Type == OpRead {
				reads++
			} else if len(op.Value) != 1024 {
				t.Fatalf("%s: update value size %d", tc.w, len(op.Value))
			}
		}
		if frac := float64(reads) / n; math.Abs(frac-tc.want) > 0.02 {
			t.Errorf("%s read fraction = %v, want %v", tc.w, frac, tc.want)
		}
	}
}

func TestYCSBKeysInRange(t *testing.T) {
	g := NewYCSBGen(WorkloadA, 100, 64, 9)
	keys := make(map[string]bool)
	for _, k := range g.LoadKeys() {
		keys[k] = true
	}
	if len(keys) != 100 {
		t.Fatalf("load keys = %d unique, want 100", len(keys))
	}
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if !keys[op.Key] {
			t.Fatalf("generated key %q outside loaded keyspace", op.Key)
		}
	}
}

func TestYCSBZipfSkew(t *testing.T) {
	g := NewYCSBGen(WorkloadC, 10000, 64, 11)
	counts := make(map[string]int)
	for i := 0; i < 50000; i++ {
		counts[g.Next().Key]++
	}
	// The hottest key must dominate the median key heavily.
	var hottest int
	for _, c := range counts {
		if c > hottest {
			hottest = c
		}
	}
	if hottest < 500 {
		//snicvet:ignore detflow -- max over map values is the same whatever order the map yields them
		t.Fatalf("hottest key count %d: Zipf skew missing", hottest)
	}
}

func TestRuleSetGeneration(t *testing.T) {
	for _, name := range []RuleSetName{RuleSetImage, RuleSetFlash, RuleSetExecutable} {
		rs := GenRuleSet(name, 42)
		if len(rs.Patterns) == 0 {
			t.Fatalf("%s: no patterns", name)
		}
		seen := map[string]bool{}
		for _, p := range rs.Patterns {
			if seen[p] {
				t.Fatalf("%s: duplicate pattern", name)
			}
			seen[p] = true
		}
	}
	// Image set: more, shorter patterns than executable.
	img, exe := GenRuleSet(RuleSetImage, 42), GenRuleSet(RuleSetExecutable, 42)
	if len(img.Patterns) <= len(exe.Patterns) {
		t.Error("file_image should have more patterns than file_executable")
	}
	if img.MatchDensity <= exe.MatchDensity {
		t.Error("file_image should match more often than file_executable")
	}
}

func TestRuleSetDeterministic(t *testing.T) {
	a := GenRuleSet(RuleSetFlash, 42)
	b := GenRuleSet(RuleSetFlash, 42)
	for i := range a.Patterns {
		if a.Patterns[i] != b.Patterns[i] {
			t.Fatal("rule generation not deterministic")
		}
	}
}

func TestPayloadGenMatchDensity(t *testing.T) {
	rs := GenRuleSet(RuleSetImage, 42)
	pg := NewPayloadGen(rs, 7)
	matches := 0
	const n = 20000
	for i := 0; i < n; i++ {
		payload, has := pg.Next(1500)
		if has {
			matches++
			// Ground truth: the payload must actually contain a pattern.
			found := false
			for _, p := range rs.Patterns {
				if bytes.Contains(payload, []byte(p)) {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("hasMatch=true but no pattern present")
			}
		}
	}
	got := float64(matches) / n
	if math.Abs(got-rs.MatchDensity) > 0.01 {
		t.Fatalf("match density = %v, want ~%v", got, rs.MatchDensity)
	}
}

func TestPayloadGenNoFalseFiller(t *testing.T) {
	// Filler bytes live in 0x80+, patterns in 0x20–0x7e: a non-match
	// payload can never contain any pattern.
	rs := GenRuleSet(RuleSetExecutable, 42)
	pg := NewPayloadGen(rs, 9)
	for i := 0; i < 2000; i++ {
		payload, has := pg.Next(256)
		if has {
			continue
		}
		for _, p := range rs.Patterns {
			if bytes.Contains(payload, []byte(p)) {
				t.Fatal("filler accidentally contains a pattern")
			}
		}
	}
}

// Property: payload generator always returns exactly n bytes.
func TestPayloadGenSizeProperty(t *testing.T) {
	rs := GenRuleSet(RuleSetFlash, 1)
	pg := NewPayloadGen(rs, 2)
	f := func(n uint16) bool {
		size := int(n%2000) + 16
		p, _ := pg.Next(size)
		return len(p) == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestYCSBBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero records did not panic")
		}
	}()
	NewYCSBGen(WorkloadA, 0, 10, 1)
}
