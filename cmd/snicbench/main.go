// Command snicbench regenerates the paper's tables and figures from the
// simulated testbed.
//
// Usage:
//
//	snicbench -exp fig4              # normalized tput/p99, all functions
//	snicbench -exp fig4 -func redis  # one function only
//	snicbench -exp fig5              # REM rate sweep
//	snicbench -exp fig6              # power + energy efficiency
//	snicbench -exp fig7              # hyperscaler trace
//	snicbench -exp table4            # trace replay comparison
//	snicbench -exp table5            # 5-year TCO (paper + measured inputs)
//	snicbench -exp strategies        # §5.3 advisor + load balancer
//	snicbench -exp faults            # trace replay under injected faults
//	snicbench -exp fleet             # datacenter fleet + provisioning search
//	snicbench -exp pipeline          # chained tax pipelines + saturation search
//	snicbench -exp offload           # flow-offload policies under churn
//	snicbench -exp specs             # Tables 1 & 2 hardware specs
//	snicbench -exp catalog           # Table 3 benchmark matrix
//	snicbench -exp functional        # verify the real implementations
//	snicbench -exp all               # everything above
//
// -j N fans independent simulations across N goroutines (default: the
// machine's CPU count). Results are merged in submission order, so the
// output is byte-identical at every -j; progress goes to stderr only.
//
// -check runs every simulation in checked-execution mode: conservation,
// causality, clock-monotonicity and queue-sanity invariants are
// validated online and the process panics with a typed violation the
// moment one breaks. Output is identical with or without -check.
//
// Telemetry flags record every simulated run and export after the
// experiments finish; the exports are byte-identical at every -j too:
//
//	snicbench -exp fig4 -trace t.json      # Chrome/Perfetto trace
//	snicbench -exp fig4 -metrics m.csv     # sampled metrics (CSV)
//	snicbench -exp fig4 -metrics m.json    # sampled metrics (JSON)
//	snicbench -exp fig4 -manifest runs.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tco"
	"repro/snic"
)

// validExps lists every -exp value, in the order "all" runs them.
var validExps = []string{
	"specs", "catalog", "functional",
	"fig4", "fig5", "fig6", "fig7",
	"table4", "table5",
	"strategies", "faults", "fleet", "pipeline", "offload",
	"all",
}

func main() {
	exp := flag.String("exp", "fig4", "experiment: "+strings.Join(validExps, ", "))
	fn := flag.String("func", "", "restrict fig4/fig6 to one function (e.g. redis)")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel simulations (output is identical at every -j)")
	quiet := flag.Bool("q", false, "suppress the stderr progress line")
	check := flag.Bool("check", false, "checked execution: validate conservation/causality invariants online (panics on first violation)")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace of every simulated run to this file")
	metricsOut := flag.String("metrics", "", "write sampled metrics to this file (.json for JSON, otherwise CSV)")
	manifestOut := flag.String("manifest", "", "write per-run telemetry manifests (JSON) to this file")
	profileOut := flag.String("profile", "", "write the simulator self-profile (events, heap depth, cache/pool traffic) as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a runtime/pprof heap profile to this file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: snicbench [-exp NAME] [-func FN] [-j N] [-q] [-check] [-trace F] [-metrics F] [-manifest F] [-profile F] [-cpuprofile F] [-memprofile F]\n\nexperiments:\n")
		for _, e := range validExps {
			fmt.Fprintf(flag.CommandLine.Output(), "  %s\n", e)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	opts := []snic.Option{snic.WithParallelism(*jobs)}
	if *check {
		opts = append(opts, snic.WithInvariantChecks())
	}
	var prog *progressLine
	if !*quiet {
		prog = &progressLine{}
		opts = append(opts, snic.WithProgress(prog.update))
	}
	var tel *snic.Telemetry
	if *traceOut != "" || *metricsOut != "" || *manifestOut != "" {
		tel = snic.NewTelemetry()
		if *traceOut != "" {
			tel.EnableTrace()
		}
		opts = append(opts, snic.WithTelemetry(tel))
	}
	var prof *snic.Profiler
	if *profileOut != "" {
		prof = snic.NewProfiler()
		opts = append(opts, snic.WithSelfProfile(prof))
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snicbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "snicbench: cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	// Every experiment runs on one testbed, so an operating point two
	// experiments share (fig6 reruns fig4's searches, table5 revisits
	// fig4 and table4 points) is simulated once and served from the
	// testbed's memo cache after that.
	tb := snic.NewTestbed(opts...)

	// run dispatches one experiment, telling the progress line which
	// experiment is currently executing so the live status names it.
	run := func(name string, fn func()) {
		prog.setExperiment(name)
		fn()
	}
	dispatch := map[string]func(){
		"fig4":       func() { runFig4(tb, *fn, false) },
		"fig6":       func() { runFig4(tb, *fn, true) },
		"fig5":       func() { snic.RenderFig5(os.Stdout, tb.Fig5(nil)) },
		"fig7":       func() { snic.RenderFig7(os.Stdout, snic.HyperscalerTrace()) },
		"table4":     func() { snic.RenderTable4(os.Stdout, tb.Table4()) },
		"table5":     func() { runTable5(tb) },
		"strategies": func() { runStrategies(tb, opts) },
		"faults":     func() { runFaults(tb) },
		"fleet":      func() { runFleet(tb) },
		"pipeline":   func() { runPipeline(tb) },
		"offload":    func() { runOffload(tb) },
		"specs":      runSpecs,
		"catalog":    runCatalog,
		"functional": runFunctional,
	}
	start := time.Now()
	if *exp == "all" {
		// Same order the command has always used.
		for _, e := range []string{"specs", "catalog", "functional", "fig4", "fig6",
			"fig5", "fig7", "table4", "table5", "strategies", "faults", "fleet",
			"pipeline", "offload"} {
			run(e, dispatch[e])
		}
	} else if fn, ok := dispatch[*exp]; ok {
		run(*exp, fn)
	} else {
		fmt.Fprintf(os.Stderr, "snicbench: unknown experiment %q (valid: %s)\n",
			*exp, strings.Join(validExps, ", "))
		os.Exit(2)
	}
	elapsed := time.Since(start)

	if tel != nil {
		writeOut(*traceOut, tel.WriteTrace)
		if *metricsOut != "" {
			if strings.HasSuffix(*metricsOut, ".json") {
				writeOut(*metricsOut, tel.WriteMetricsJSON)
			} else {
				writeOut(*metricsOut, tel.WriteMetricsCSV)
			}
		}
		writeOut(*manifestOut, tel.WriteManifests)
	}
	if prof != nil {
		// profile.json holds virtual-state counters only, so sequential
		// profiles are byte-identical across runs; the wall-clock rate is
		// advisory and goes to stderr.
		writeOut(*profileOut, prof.WriteProfile)
		sp := prof.Snapshot()
		if sec := elapsed.Seconds(); sec > 0 && sp.Events > 0 {
			fmt.Fprintf(os.Stderr, "self-profile: %d runs, %d events in %.2fs (%.0f events/s), heap peak %d\n",
				sp.Runs, sp.Events, sec, float64(sp.Events)/sec, sp.HeapPeak)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snicbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "snicbench: heap profile: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "snicbench: closing %s: %v\n", *memProfile, err)
			os.Exit(1)
		}
	}
}

// writeOut writes one telemetry export to path ("" skips).
func writeOut(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snicbench: %v\n", err)
		os.Exit(1)
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err == nil {
		err = bw.Flush()
	} else {
		fmt.Fprintf(os.Stderr, "snicbench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "snicbench: closing %s: %v\n", path, err)
		os.Exit(1)
	}
}

// progressLine keeps one live status line on stderr naming the
// experiment currently running plus the row counts, clearing itself when
// an experiment completes so finished runs leave no residue. Stdout is
// untouched: the rendered figures stay byte-identical whether or not
// progress is shown. A nil progressLine (quiet mode) is a no-op.
type progressLine struct {
	exp string
}

// setExperiment names the experiment that is about to run.
func (p *progressLine) setExperiment(name string) {
	if p != nil {
		p.exp = name
	}
}

// update is the snic.WithProgress callback.
func (p *progressLine) update(done, total int, label string) {
	const width = 72
	if done >= total {
		fmt.Fprintf(os.Stderr, "\r%*s\r", width, "")
		return
	}
	line := fmt.Sprintf("[%s %d/%d] %s", p.exp, done, total, label)
	if len(line) > width {
		line = line[:width]
	}
	fmt.Fprintf(os.Stderr, "\r%-*s", width, line)
}

func selectedBenchmarks(fn string) []*snic.Benchmark {
	all := snic.Benchmarks()
	if fn == "" {
		return all
	}
	var out []*snic.Benchmark
	for _, b := range all {
		if b.Function == fn {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "snicbench: unknown function %q\n", fn)
		os.Exit(2)
	}
	return out
}

func runFig4(tb *snic.Testbed, fn string, asFig6 bool) {
	rows := tb.Fig4For(selectedBenchmarks(fn))
	if asFig6 {
		snic.RenderFig6(os.Stdout, rows)
	} else {
		snic.RenderFig4(os.Stdout, rows)
	}
}

// runTable5 prints the paper-input reproduction and then a fully
// measured variant driven by our own simulated fleets.
func runTable5(tbed *snic.Testbed) {
	fmt.Println("== From the paper's published inputs ==")
	snic.RenderTable5(os.Stdout, snic.PaperTable5())

	fmt.Println("\n== From this testbed's measurements ==")
	model := tco.PaperCostModel()
	var rows []tco.Row

	// fio: wire-bound on both fleets.
	fio, _ := snic.LookupBenchmark("fio", "read")
	fioSNIC := tbed.MaxThroughput(fio, snic.SNICCPU)
	fioNIC := tbed.MaxThroughput(fio, snic.HostCPU)
	rows = append(rows, model.Analyze("fio",
		tco.AppMeasurement{ThroughputGbps: fioSNIC.TputGbps, PowerW: fioSNIC.ServerPowerW},
		tco.AppMeasurement{ThroughputGbps: fioNIC.TputGbps, PowerW: fioNIC.ServerPowerW}))

	// OvS at full line rate.
	ovs, _ := snic.LookupBenchmark("ovs", "load100")
	ovsSNIC := tbed.MaxThroughput(ovs, snic.SNICCPU)
	ovsNIC := tbed.MaxThroughput(ovs, snic.HostCPU)
	rows = append(rows, model.Analyze("OVS",
		tco.AppMeasurement{ThroughputGbps: ovsSNIC.TputGbps, PowerW: ovsSNIC.ServerPowerW},
		tco.AppMeasurement{ThroughputGbps: ovsNIC.TputGbps, PowerW: ovsNIC.ServerPowerW}))

	// REM at the hyperscaler trace rate (both fleets sustain it).
	t4 := tbed.Table4()
	rows = append(rows, model.Analyze("REM",
		tco.AppMeasurement{ThroughputGbps: t4[1].AvgTputGbps, PowerW: t4[1].AvgPowerW},
		tco.AppMeasurement{ThroughputGbps: t4[0].AvgTputGbps, PowerW: t4[0].AvgPowerW}))

	// Compression: the engine's 3.5× throughput advantage.
	cmp, _ := snic.LookupBenchmark("compress", "app")
	cmpSNIC := tbed.MaxThroughput(cmp, snic.SNICAccel)
	cmpNIC := tbed.MaxThroughput(cmp, snic.HostCPU)
	rows = append(rows, model.Analyze("Compress",
		tco.AppMeasurement{ThroughputGbps: cmpSNIC.TputGbps, PowerW: cmpSNIC.ServerPowerW},
		tco.AppMeasurement{ThroughputGbps: cmpNIC.TputGbps, PowerW: cmpNIC.ServerPowerW}))

	snic.RenderTable5(os.Stdout, rows)
}

func runStrategies(tbed *snic.Testbed, opts []snic.Option) {
	fmt.Println("== Strategy 2: offload advisor (SLO = 500µs p99) ==")
	adv := snic.NewAdvisor(opts...)
	t := report.NewTable("", "benchmark", "recommendation", "reason")
	for _, rec := range adv.AdviseAll(500 * sim.Microsecond) {
		chosen := string(rec.Chosen)
		if chosen == "" {
			chosen = "(none meets SLO)"
		}
		t.Add(rec.Config.Name(), chosen, rec.Reason)
	}
	t.Render(os.Stdout)

	fmt.Println("\n== Strategy 3: SNIC<->host load balancer under bursts ==")
	tr := snic.BurstyTrace(5, 72, 60, 6, 2*snic.Millisecond)
	balanced := func(lb snic.LoadBalancer) snic.BalancedResult {
		return *execute(tbed, snic.Workload{Kind: snic.WorkloadBalanced, Balancer: &lb,
			Trace: tr, HostCores: 8, Seed: 1}).Balanced
	}
	for _, run := range []struct {
		name string
		res  snic.BalancedResult
	}{
		{"accelerator only", balanced(snic.LoadBalancer{SpillQueueThreshold: 1 << 30, HWAssist: true})},
		{"software balancer (paper's prototype)", balanced(snic.SoftwareBalancer())},
		{"hardware-assisted balancer (proposed)", balanced(snic.HardwareBalancer())},
	} {
		fmt.Printf("  %-40s %v\n", run.name, run.res)
	}
}

// runFaults replays the hyperscaler trace while injecting the three
// stock fault scenarios, with the health-aware router failing REM work
// over to the host. The first row is the fault-free baseline. Scenario
// descriptions print before any replay starts, so stdout is identical
// at every -j even though the scenarios replay concurrently.
func runFaults(tbed *snic.Testbed) {
	fmt.Println("== Fault scenarios: REM trace replay with failover ==")
	tr := snic.HyperscalerTrace().Compress(400 * snic.Microsecond)
	router := func() *snic.HealthRouter {
		return snic.NewHealthRouter(snic.HardwareBalancer(), snic.DefaultFailoverPolicy())
	}
	scns := snic.DefaultFaultScenarios(tr.Duration())
	for _, scn := range scns {
		fmt.Printf("  %-12s %s\n", scn.Name+":", scn.Desc)
	}
	base := execute(tbed, snic.Workload{Kind: snic.WorkloadFaulted, Scenario: &snic.FaultScenario{Name: "baseline"},
		Router: router(), Trace: tr, HostCores: 2, Seed: 42}).Fault
	rows := tbed.RunFaultedSet(scns, router, tr, 2, 42)
	snic.RenderFaults(os.Stdout, *base, rows)
}

// execute runs one workload, exiting on its error.
func execute(tb *snic.Testbed, w snic.Workload) snic.Result {
	res, err := tb.Execute(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snicbench: %s: %v\n", w.Kind, err)
		os.Exit(1)
	}
	return res
}

// runFleet simulates a 36-server heterogeneous datacenter on the
// diurnal trace scaled to fleet-level offered load, compares the four
// dispatch policies, and then runs the provisioning search that
// generalizes Table 5.
func runFleet(tbed *snic.Testbed) {
	classes := []snic.FleetClass{snic.NICHosts(16), snic.SNICCPUs(12), snic.SNICAccels(8)}
	servers := 0
	for _, c := range classes {
		servers += c.Count
	}
	// One day of the diurnal trace, subsampled and time-compressed for
	// simulation, scaled so the fleet-level mean is servers × the
	// paper's 0.76 Gb/s per-server regime.
	tr := snic.HyperscalerTrace().Subsample(4).Scale(float64(servers)).Compress(400 * snic.Microsecond)

	fmt.Printf("== Fleet: %d servers (16 NIC hosts, 12 SNIC-CPU, 8 SNIC-accel) ==\n", servers)
	var rows []snic.FleetResult
	for _, pol := range snic.FleetPolicies() {
		res, err := tbed.RunFleet(snic.FleetConfig{
			Classes: classes,
			Policy:  pol,
			Trace:   tr,
			Seed:    42,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "snicbench: fleet %s: %v\n", pol, err)
			os.Exit(1)
		}
		rows = append(rows, res)
	}
	snic.RenderFleet(os.Stdout, rows)
	fmt.Println()
	snic.RenderFleetServers(os.Stdout, rows[2]) // the SLO-aware run

	fmt.Println("\n== Provisioning search (generalized Table 5) ==")
	prov, err := tbed.ProvisionTable5(snic.ProvisionOpts{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "snicbench: provision: %v\n", err)
		os.Exit(1)
	}
	snic.RenderProvision(os.Stdout, prov)
}

// runPipeline measures the chained tax pipelines (§2's
// crypto→compress→send and NAT→IDS sequences) under both fallback
// policies. Each (pipeline, policy) pair gets a run_until_saturation
// load walk; the knee rows come out first so the policies' distinct
// knees read side by side, then the full curves follow. All simulation
// happens before any rendering, so stdout is byte-identical at any -j.
func runPipeline(tbed *snic.Testbed) {
	fmt.Println("== Multi-phase pipelines: heterogeneous fallback + saturation search ==")
	var fixed []snic.PipelineMeasurement
	var walks []snic.SaturationResult
	for _, mk := range []func() *snic.PipelineSpec{
		snic.CryptoCompressSendPipeline, snic.NATIDSPipeline,
	} {
		for _, pol := range []snic.FallbackPolicy{snic.DropWhenFull{}, snic.SpillToHost{}} {
			ps := mk()
			ps.Fallback = pol
			sat := tbed.SaturationSearch(ps, snic.SaturationOpts{Seed: 42})
			walks = append(walks, sat)
			knee := sat.Knee
			if sat.KneeGbps <= 0 {
				// Nothing sustained: report the lightest point instead of
				// an empty row.
				knee = sat.Points[0].M
			}
			fixed = append(fixed, knee)
		}
	}
	snic.RenderPipeline(os.Stdout, fixed)
	fmt.Println()
	snic.RenderSaturation(os.Stdout, walks)
}

// runOffload compares the three offload threshold policies —
// static-per-function (offload everything), static-per-flow-threshold
// (fixed K), adaptive (K moved online from the table's churn counters)
// — on the same churny trace against the same bounded eSwitch flow
// table. All simulation happens before rendering, so stdout is
// byte-identical at any -j.
func runOffload(tbed *snic.Testbed) {
	fmt.Println("== Flow offload: bounded eSwitch table + threshold policies under churn ==")
	rs := tbed.OffloadExperiment(snic.DefaultOffloadSpec(), snic.DefaultOffloadPolicies())
	snic.RenderOffload(os.Stdout, rs)
}

func runFunctional() {
	fmt.Println("== Execution-driven verification of the real implementations ==")
	cases := []struct {
		fn, variant string
		n           int
	}{
		{"snort", "file_image", 3000}, {"rem", "file_executable", 3000},
		{"nat", "10K", 5000}, {"bm25", "100docs", 500},
		{"redis", "workload_a", 5000}, {"mica", "batch32", 500},
		{"crypto", "aes", 300}, {"crypto", "sha1", 500}, {"crypto", "rsa", 10},
		{"compress", "app", 5}, {"compress", "txt", 5},
		{"ovs", "load100", 8000}, {"fio", "write", 1000},
	}
	failures := 0
	for _, tc := range cases {
		rep, err := snic.RunFunctional(tc.fn, tc.variant, tc.n, 42)
		if err != nil {
			fmt.Fprintf(os.Stderr, "  %s/%s: %v\n", tc.fn, tc.variant, err)
			failures++
			continue
		}
		fmt.Printf("  %v\n", rep)
		failures += rep.Failures
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "FUNCTIONAL FAILURES: %d\n", failures)
		os.Exit(1)
	}
	fmt.Println("all implementations verified against their oracles")
}

func runSpecs() {
	fmt.Println("== Table 1/2: hardware specifications ==")
	for _, s := range []*cpu.Spec{cpu.XeonGold6140(), cpu.BlueField2Arm(), cpu.XeonE52640v3()} {
		fmt.Printf("  %v\n", s)
	}
	for _, m := range []*mem.Spec{mem.ServerDDR4(), mem.BlueField2DDR4(), mem.ClientDDR4()} {
		fmt.Printf("  %v\n", m)
	}
}

func runCatalog() {
	fmt.Println("== Table 3: benchmark matrix ==")
	t := report.NewTable("", "function/variant", "stack", "category", "platforms", "targets (tput/p99)")
	for _, c := range core.Catalog() {
		plats := make([]string, len(c.Platforms))
		for i, p := range c.Platforms {
			plats[i] = string(p)
		}
		target := "-"
		if c.WantTputRatio > 0 {
			target = fmt.Sprintf("%.2fx / %.2fx", c.WantTputRatio, c.WantP99Ratio)
			if c.Assigned {
				target += " (assigned)"
			}
		}
		t.Add(c.Name(), string(c.Stack), string(c.Category), strings.Join(plats, ","), target)
	}
	t.Render(os.Stdout)
}
