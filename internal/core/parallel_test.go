package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// fig4TestSubset is a small, mixed slice of the catalog: one software
// function, one accelerated, one microbenchmark — enough to exercise
// every platform pair without Fig. 4's full runtime.
func fig4TestSubset(t testing.TB) []*Config {
	t.Helper()
	var subset []*Config
	want := map[string]bool{"nat/10K": true, "compress/app": true, "udp-echo/64B": true}
	for _, cfg := range Catalog() {
		if want[cfg.Name()] {
			subset = append(subset, cfg)
		}
	}
	if len(subset) != 3 {
		t.Fatalf("subset has %d entries, want 3", len(subset))
	}
	return subset
}

// TestFig4ParallelDeterminism is the engine's core guarantee: the same
// seed at parallelism 1 and 8 yields deeply equal rows.
func TestFig4ParallelDeterminism(t *testing.T) {
	subset := fig4TestSubset(t)
	seq := NewRunner()
	seq.Parallelism = 1
	par := NewRunner()
	par.Parallelism = 8
	a := seq.Fig4For(subset)
	b := par.Fig4For(subset)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel Fig4 diverged from sequential:\nseq: %v\npar: %v", a, b)
	}
}

// TestFig5ParallelDeterminism covers the per-index seeding path.
func TestFig5ParallelDeterminism(t *testing.T) {
	rates := []float64{20, 40, 60, 80}
	seq := NewRunner()
	par := NewRunner()
	par.Parallelism = 8
	if a, b := seq.Fig5(rates), par.Fig5(rates); !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel Fig5 diverged:\nseq: %v\npar: %v", a, b)
	}
}

// TestMeasurementCache re-runs an experiment on one runner: the second
// pass must be answered entirely from the memo cache.
func TestMeasurementCache(t *testing.T) {
	subset := fig4TestSubset(t)
	r := NewRunner()
	first := r.Fig4For(subset)
	sims := r.Sims()
	if sims == 0 {
		t.Fatal("first pass simulated nothing")
	}
	second := r.Fig4For(subset)
	if got := r.Sims(); got != sims {
		t.Fatalf("second pass ran %d new simulations, want 0", got-sims)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached rows differ from the originals")
	}
}

// TestCacheKeyDiscriminates guards against stale hits: a modified copy
// of a config keeps its name but must re-simulate, while an identical
// copy must not.
func TestCacheKeyDiscriminates(t *testing.T) {
	base, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	opts := DefaultRunOpts()
	opts.Requests = 2000
	opts.OfferedGbps = 0.5
	ref := r.Run(base, HostCPU, opts)

	mod := *base
	mod.HostBaseCycles *= 50 // same name, different cost model
	before := r.Sims()
	got := r.Run(&mod, HostCPU, opts)
	if r.Sims() == before {
		t.Fatal("modified config was served from the cache")
	}
	if got.Latency.P99 == ref.Latency.P99 {
		t.Fatal("inflated cycles did not change the measurement (key too coarse?)")
	}

	same := *base
	before = r.Sims()
	if r.Run(&same, HostCPU, opts); r.Sims() != before {
		t.Fatal("identical copy missed the cache")
	}
}

// TestForEach checks the pool visits every index exactly once at any
// worker count, including workers > n and n = 0.
func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 63} {
			var mu sync.Mutex
			seen := make(map[int]int)
			forEach(workers, n, func(i int) {
				mu.Lock()
				seen[i]++
				mu.Unlock()
			})
			if len(seen) != n {
				t.Fatalf("workers=%d n=%d: visited %d indices", workers, n, len(seen))
			}
			for i := 0; i < n; i++ {
				if seen[i] != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, seen[i])
				}
			}
		}
	}
}

// TestProgressCallback verifies counts are monotonic per tracker, the
// totals add up, and invocations never race (the callback mutates
// unguarded state; -race would flag unserialized calls).
func TestProgressCallback(t *testing.T) {
	var calls int
	var maxTotal int
	r := NewRunner()
	r.Parallelism = 8
	r.Progress = func(done, total int, label string) {
		calls++
		if done < 1 || done > total {
			t.Errorf("progress out of range: %d/%d %q", done, total, label)
		}
		if total > maxTotal {
			maxTotal = total
		}
		if label == "" {
			t.Error("empty progress label")
		}
	}
	r.Fig4For(fig4TestSubset(t))
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
	if maxTotal < 3 {
		t.Fatalf("never saw the experiment-level total, max seen %d", maxTotal)
	}
}

// TestLinkRateOption: a 25 GbE wire cannot deliver a 40 Gb/s offer, so
// the option must visibly throttle the run.
func TestLinkRateOption(t *testing.T) {
	cfg := remMTU(trace.RuleSetExecutable)
	r := NewRunner()
	r.TBConfig.LinkRateGbps = 25
	opts := DefaultRunOpts()
	opts.Requests = 6000
	opts.OfferedGbps = 40
	m := r.Run(cfg, HostCPU, opts)
	if m.DeliveredFrac > 0.75 {
		t.Fatalf("25 GbE wire delivered %.0f%% of a 40 Gb/s offer", m.DeliveredFrac*100)
	}
	if fmt.Sprintf("%.0f", r.TBConfig.LinkGbps()) != "25" {
		t.Fatalf("LinkGbps = %v", r.TBConfig.LinkGbps())
	}
}

// TestRunFaultedSetMatchesLoop: the parallel scenario fan must equal a
// sequential RunFaulted loop, scenario by scenario.
func TestRunFaultedSetMatchesLoop(t *testing.T) {
	tr := BurstyTrace(4, 60, 10, 4, 2*sim.Millisecond)
	scns := DefaultFaultScenarios(tr.Duration())
	mk := func() *HealthRouter {
		return NewHealthRouter(HWLoadBalancer(), DefaultFailoverPolicy())
	}
	seq := NewRunner()
	var want []FaultResult
	for _, scn := range scns {
		want = append(want, seq.RunFaulted(scn, mk(), tr, 2, 42))
	}
	par := NewRunner()
	par.Parallelism = 8
	got := par.RunFaultedSet(scns, mk, tr, 2, 42)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("RunFaultedSet diverged:\nwant %v\ngot  %v", want, got)
	}
}
