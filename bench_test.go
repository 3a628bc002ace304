package repro

// One benchmark per table and figure of the paper's evaluation, plus
// ablations for the design choices DESIGN.md calls out. Each benchmark
// regenerates its experiment end to end in virtual time and reports the
// headline quantities via b.ReportMetric, so `go test -bench=.` doubles
// as the reproduction harness:
//
//	BenchmarkFig4Microbenchmarks   — §3.3 stacks, normalized ratios
//	BenchmarkFig4SoftwareOnly      — software-only function group
//	BenchmarkFig4Accelerated       — hardware-accelerated group
//	BenchmarkFig5REMSweep          — REM throughput/p99 vs offered rate
//	BenchmarkFig6PowerEfficiency   — power + energy-efficiency columns
//	BenchmarkFig7TraceGeneration   — hyperscaler trace synthesis
//	BenchmarkTable4TraceReplay     — REM on the trace, host vs SNIC
//	BenchmarkTable5TCO             — the 5-year TCO arithmetic
//	BenchmarkStrategyLoadBalancer  — §5.3 Strategy 3 ablation
//	BenchmarkAblation*             — batching, staging, governor choices

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tco"
	"repro/internal/trace"
	"repro/snic"
)

// Benchmarks that re-run an experiment build a FRESH testbed every
// iteration: the runner memoizes measurements, so re-measuring on one
// testbed would time cache lookups instead of simulations.

// fig4Subset runs the Fig. 4 pipeline over a category's entries.
func fig4Subset(b *testing.B, cat core.Category, maxEntries int) {
	b.Helper()
	var subset []*core.Config
	for _, cfg := range core.Catalog() {
		if cfg.Category == cat {
			subset = append(subset, cfg)
		}
		if len(subset) == maxEntries {
			break
		}
	}
	var rows []core.Fig4Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = snic.NewTestbed().Fig4For(subset)
	}
	b.StopTimer()
	var sumT, sumP float64
	for _, r := range rows {
		sumT += r.TputRatio
		sumP += r.P99Ratio
	}
	if n := float64(len(rows)); n > 0 {
		b.ReportMetric(sumT/n, "meanTputRatio")
		b.ReportMetric(sumP/n, "meanP99Ratio")
	}
}

func BenchmarkFig4Microbenchmarks(b *testing.B) {
	fig4Subset(b, core.CategoryMicro, 8)
}

func BenchmarkFig4SoftwareOnly(b *testing.B) {
	fig4Subset(b, core.CategorySoftware, 16)
}

func BenchmarkFig4Accelerated(b *testing.B) {
	fig4Subset(b, core.CategoryAccelerated, 16)
}

func BenchmarkFig5REMSweep(b *testing.B) {
	rates := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90}
	var points []core.Fig5Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = snic.NewTestbed().Fig5(rates)
	}
	b.StopTimer()
	// Report the accelerator's cap and the host exe peak (the figure's
	// two headline values).
	var accelMax, exeMax float64
	for _, p := range points {
		if v := p.Curves["accel"].TputGbps; v > accelMax {
			accelMax = v
		}
		if v := p.Curves["host/file_executable"].TputGbps; v > exeMax {
			exeMax = v
		}
	}
	b.ReportMetric(accelMax, "accelCapGbps")
	b.ReportMetric(exeMax, "hostExeMaxGbps")
}

func BenchmarkFig6PowerEfficiency(b *testing.B) {
	// Fig. 6 derives from the same runs as Fig. 4; benchmark the power
	// extremes the paper quotes: compression (3.4–3.8×) and a kernel
	// stack loser.
	cmp, _ := core.Lookup("compress", "app")
	udp, _ := core.Lookup("udp-echo", "64B")
	var rows []core.Fig4Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = snic.NewTestbed().Fig4For([]*core.Config{cmp, udp})
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Config.Function == "compress" {
			b.ReportMetric(r.EffRatio, "compressEffRatio")
		} else {
			b.ReportMetric(r.EffRatio, "udpEffRatio")
		}
	}
}

func BenchmarkFig7TraceGeneration(b *testing.B) {
	var tr *trace.HyperscalerTrace
	for i := 0; i < b.N; i++ {
		tr = trace.NewHyperscalerTrace(trace.DefaultHyperscalerConfig())
	}
	b.ReportMetric(tr.MeanGbps(), "meanGbps")
	b.ReportMetric(tr.PeakGbps(), "peakGbps")
}

func BenchmarkTable4TraceReplay(b *testing.B) {
	var rows []core.TraceReplayResult
	for i := 0; i < b.N; i++ {
		rows = core.NewRunner().Table4()
	}
	b.StopTimer()
	for _, row := range rows {
		switch row.Platform {
		case core.HostCPU:
			b.ReportMetric(row.P99.Micros(), "hostP99us")
			b.ReportMetric(row.AvgPowerW, "hostPowerW")
		case core.SNICAccel:
			b.ReportMetric(row.P99.Micros(), "snicP99us")
			b.ReportMetric(row.AvgPowerW, "snicPowerW")
		}
	}
}

func BenchmarkTable5TCO(b *testing.B) {
	var rows []tco.Row
	for i := 0; i < b.N; i++ {
		rows = tco.PaperTable5()
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Application == "Compress" {
			b.ReportMetric(r.SavingsFrac*100, "compressSavingsPct")
		}
	}
}

func BenchmarkStrategyLoadBalancer(b *testing.B) {
	r := core.NewRunner()
	tr := core.BurstyTrace(5, 72, 30, 6, 2*sim.Millisecond)
	balanced := func(lb core.LoadBalancer) core.BalancedResult {
		res, err := r.Execute(core.Workload{Kind: core.WorkloadBalanced, Balancer: &lb,
			Trace: tr, HostCores: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return *res.Balanced
	}
	var sw, hw core.BalancedResult
	for i := 0; i < b.N; i++ {
		sw = balanced(core.DefaultLoadBalancer())
		hw = balanced(core.HWLoadBalancer())
	}
	b.StopTimer()
	b.ReportMetric(sw.P99.Micros(), "softwareP99us")
	b.ReportMetric(hw.P99.Micros(), "hardwareP99us")
}

// BenchmarkFig4ParallelSpeedup times the same Fig. 4 subset at
// parallelism 1 and GOMAXPROCS; the ns/op ratio is the engine's
// speedup. On a single-core box the two coincide, so the ratio means
// something only where GOMAXPROCS > 1. TestFig4ParallelDeterminism
// checks that both produce the same rows.
func BenchmarkFig4ParallelSpeedup(b *testing.B) {
	var subset []*core.Config
	for _, cfg := range core.Catalog() {
		if cfg.Category == core.CategoryMicro {
			subset = append(subset, cfg)
		}
	}
	for _, j := range []int{1, runtime.GOMAXPROCS(0)} {
		j := j
		b.Run(benchName("j", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snic.NewTestbed(snic.WithParallelism(j)).Fig4For(subset)
			}
		})
	}
}

// BenchmarkFleetProvisioningSearch times the S22 provisioning search on
// two of Table 5's apps: Compress, whose capacity predicate sizes both
// fleets by arithmetic over their measured max throughput, and REM,
// whose FleetSim predicate replays an SLO-aware fleet per probe the
// wire could carry. A fresh testbed per iteration keeps the runner's
// memo cache cold.
func BenchmarkFleetProvisioningSearch(b *testing.B) {
	for _, spec := range snic.Table5Specs() {
		if spec.App != "Compress" && spec.App != "REM" {
			continue
		}
		b.Run(spec.App, func(b *testing.B) {
			var res snic.ProvisionResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = snic.NewTestbed().Provision(spec, snic.ProvisionOpts{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(res.Ratio, "nicPerSnic")
			b.ReportMetric(float64(res.Probes), "probes")
		})
	}
}

// ---- Ablations ----

// BenchmarkAblationAcceleratorBatching quantifies the batch-size choice:
// deeper client pipelines raise engine goodput but multiply latency —
// the throughput/latency trade behind the accelerators' p99.
func BenchmarkAblationAcceleratorBatching(b *testing.B) {
	base, _ := core.Lookup("compress", "app")
	for _, depth := range []int{1, 8, 48} {
		cfg := *base
		cfg.ClosedSNIC = depth
		var m core.Measurement
		b.Run(benchName("depth", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultRunOpts()
				opts.Requests = 4000
				m = core.NewRunner().Run(&cfg, core.SNICAccel, opts)
			}
			b.StopTimer()
			b.ReportMetric(m.TputGbps, "Gbps")
			b.ReportMetric(m.Latency.P99.Micros(), "p99us")
		})
	}
}

// BenchmarkAblationStagingCores shows why the paper dedicates exactly two
// SNIC cores to feeding the REM engine: one core starves it.
func BenchmarkAblationStagingCores(b *testing.B) {
	base, _ := core.Lookup("rem", "file_executable")
	for _, cores := range []int{1, 2, 4} {
		cores := cores
		cfg := *base
		cfg.Mixed = false
		cfg.ReqSize = 1500
		var m core.Measurement
		b.Run(benchName("staging", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := core.NewRunner()
				r.TBConfig.StagingCores = cores
				opts := core.DefaultRunOpts()
				opts.Requests = 8000
				opts.OfferedGbps = 60
				m = r.Run(&cfg, core.SNICAccel, opts)
			}
			b.StopTimer()
			b.ReportMetric(m.TputGbps, "Gbps")
		})
	}
}

// BenchmarkAblationKneeCriterion contrasts the two notions of "maximum
// throughput": raw delivered rate versus the Fig. 5 "reasonable p99"
// knee, on the rule set where they diverge most.
func BenchmarkAblationKneeCriterion(b *testing.B) {
	base, _ := core.Lookup("rem", "file_image")
	for _, tc := range []struct {
		name string
		knee float64
	}{
		{"deliveredOnly", 1e9},
		{"reasonableP99", 3},
	} {
		cfg := *base
		cfg.KneeP99Mult = tc.knee
		var m core.Measurement
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m = core.NewRunner().MaxThroughput(&cfg, core.HostCPU)
			}
			b.StopTimer()
			b.ReportMetric(m.TputGbps, "Gbps")
			b.ReportMetric(m.Latency.P99.Micros(), "p99us")
		})
	}
}

// BenchmarkFig4TelemetryOverhead runs the same Fig. 4 software subset
// with telemetry off and on. The delta between the two sub-benchmarks
// is the full cost of spans + gauges + manifests on this subset; the
// repository benchmark records the same overhead over its own workloads
// as the traced obs.overhead_frac. The simulator's own events/s comes
// along via the self-profiler.
func BenchmarkFig4TelemetryOverhead(b *testing.B) {
	var subset []*core.Config
	for _, cfg := range core.Catalog() {
		if cfg.Category == core.CategorySoftware {
			subset = append(subset, cfg)
		}
		if len(subset) == 8 {
			break
		}
	}
	for _, tel := range []bool{false, true} {
		name := "telemetry=off"
		if tel {
			name = "telemetry=on"
		}
		b.Run(name, func(b *testing.B) {
			prof := snic.NewProfiler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := []snic.Option{snic.WithSelfProfile(prof)}
				if tel {
					opts = append(opts, snic.WithTelemetry(snic.NewTelemetry()))
				}
				snic.NewTestbed(opts...).Fig4For(subset)
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(prof.Snapshot().Events)/sec, "events/s")
			}
		})
	}
}

// BenchmarkEngineCore measures the raw simulation engine: events/second
// of a saturated M/M/8 queue — the substrate every experiment rides on.
func BenchmarkEngineCore(b *testing.B) {
	eng := sim.NewEngine()
	st := sim.NewStation(eng, 8)
	rng := sim.NewRNG(1)
	n := 0
	var feed func()
	feed = func() {
		n++
		st.Submit(&sim.Job{Service: rng.Exp(1000)})
		if n < b.N {
			eng.After(rng.Exp(125), feed)
		}
	}
	b.ResetTimer()
	eng.At(0, feed)
	eng.Run()
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
