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
	"errors"
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

func main() { os.Exit(run(os.Args[1:])) }

// run is the command with its arguments; it returns the exit status
// once its deferred work (stopping and closing the CPU profile) is
// done, so a failed export still leaves a complete profile.
func run(args []string) int {
	fs := flag.NewFlagSet("snicbench", flag.ContinueOnError)
	exp := fs.String("exp", "fig4", "experiment: "+strings.Join(validExps, ", "))
	fn := fs.String("func", "", "restrict fig4/fig6 to one function (e.g. redis)")
	jobs := fs.Int("j", runtime.NumCPU(), "parallel simulations (output is identical at every -j)")
	quiet := fs.Bool("q", false, "suppress the stderr progress line")
	check := fs.Bool("check", false, "checked execution: validate conservation/causality invariants online (panics on first violation)")
	traceOut := fs.String("trace", "", "write a Chrome/Perfetto trace of every simulated run to this file")
	metricsOut := fs.String("metrics", "", "write sampled metrics to this file (.json for JSON, otherwise CSV)")
	manifestOut := fs.String("manifest", "", "write per-run telemetry manifests (JSON) to this file")
	profileOut := fs.String("profile", "", "write the simulator self-profile (events, heap depth, cache/pool traffic) as JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile to this file")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: snicbench [-exp NAME] [-func FN] [-j N] [-q] [-check] [-trace F] [-metrics F] [-manifest F] [-profile F] [-cpuprofile F] [-memprofile F]\n\nexperiments:\n")
		for _, e := range validExps {
			fmt.Fprintf(fs.Output(), "  %s\n", e)
		}
		fmt.Fprintf(fs.Output(), "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

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
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(fmt.Errorf("cpu profile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}

	// Every experiment runs on one testbed, so an operating point two
	// experiments share (fig6 reruns fig4's searches, table5 revisits
	// fig4 and table4 points) is simulated once and served from the
	// testbed's memo cache after that.
	tb := snic.NewTestbed(opts...)

	// runExp dispatches one experiment, telling the progress line which
	// experiment is currently executing so the live status names it.
	runExp := func(name string, fn func() error) error {
		prog.setExperiment(name)
		return fn()
	}
	noErr := func(render func()) func() error {
		return func() error { render(); return nil }
	}
	dispatch := map[string]func() error{
		"fig4":       func() error { return runFig4(tb, *fn, false) },
		"fig6":       func() error { return runFig4(tb, *fn, true) },
		"fig5":       noErr(func() { snic.RenderFig5(os.Stdout, tb.Fig5(nil)) }),
		"fig7":       noErr(func() { snic.RenderFig7(os.Stdout, snic.HyperscalerTrace()) }),
		"table4":     noErr(func() { snic.RenderTable4(os.Stdout, tb.Table4()) }),
		"table5":     noErr(func() { runTable5(tb) }),
		"strategies": func() error { return runStrategies(tb, opts) },
		"faults":     func() error { return runFaults(tb) },
		"fleet":      func() error { return runFleet(tb) },
		"pipeline":   noErr(func() { runPipeline(tb) }),
		"offload":    noErr(func() { runOffload(tb) }),
		"specs":      noErr(runSpecs),
		"catalog":    noErr(runCatalog),
		"functional": runFunctional,
	}
	start := time.Now()
	var err error
	if *exp == "all" {
		// Same order the command has always used.
		for _, e := range []string{"specs", "catalog", "functional", "fig4", "fig6",
			"fig5", "fig7", "table4", "table5", "strategies", "faults", "fleet",
			"pipeline", "offload"} {
			if err = runExp(e, dispatch[e]); err != nil {
				break
			}
		}
	} else if fn, ok := dispatch[*exp]; ok {
		err = runExp(*exp, fn)
	} else {
		fmt.Fprintf(os.Stderr, "snicbench: unknown experiment %q (valid: %s)\n",
			*exp, strings.Join(validExps, ", "))
		return 2
	}
	var ff functionalFailures
	switch {
	case errors.Is(err, errUnknownFunction):
		fmt.Fprintf(os.Stderr, "snicbench: %v\n", err)
		return 2
	case errors.As(err, &ff):
		fmt.Fprintln(os.Stderr, err)
		return 1
	case err != nil:
		return fail(err)
	}
	elapsed := time.Since(start)

	if tel != nil {
		writeMetrics := tel.WriteMetricsCSV
		if strings.HasSuffix(*metricsOut, ".json") {
			writeMetrics = tel.WriteMetricsJSON
		}
		for _, out := range []struct {
			path  string
			write func(io.Writer) error
		}{{*traceOut, tel.WriteTrace}, {*metricsOut, writeMetrics}, {*manifestOut, tel.WriteManifests}} {
			if err := writeOut(out.path, out.write); err != nil {
				return fail(err)
			}
		}
	}
	if prof != nil {
		// profile.json holds virtual-state counters only, so sequential
		// profiles are byte-identical across runs; the wall-clock rate is
		// advisory and goes to stderr.
		if err := writeOut(*profileOut, prof.WriteProfile); err != nil {
			return fail(err)
		}
		sp := prof.Snapshot()
		if sec := elapsed.Seconds(); sec > 0 && sp.Events > 0 {
			fmt.Fprintf(os.Stderr, "self-profile: %d runs, %d events in %.2fs (%.0f events/s), heap peak %d\n",
				sp.Runs, sp.Events, sec, float64(sp.Events)/sec, sp.HeapPeak)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("heap profile: %w", err))
		}
		if err := f.Close(); err != nil {
			return fail(fmt.Errorf("closing %s: %w", *memProfile, err))
		}
	}
	return 0
}

// fail reports err and returns the exit status for it.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "snicbench: %v\n", err)
	return 1
}

// writeOut writes one export to path ("" skips). It returns the first
// error from creating, writing, flushing or closing the file: an export
// small enough to stay in the buffer fails only at the flush.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
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

// errUnknownFunction marks a -func value no benchmark has; run exits 2
// for it, as for a bad flag.
var errUnknownFunction = errors.New("unknown function")

// functionalFailures counts the implementations that disagreed with
// their oracles; run prints it without the command prefix.
type functionalFailures int

func (n functionalFailures) Error() string {
	return fmt.Sprintf("FUNCTIONAL FAILURES: %d", int(n))
}

func selectedBenchmarks(fn string) ([]*snic.Benchmark, error) {
	all := snic.Benchmarks()
	if fn == "" {
		return all, nil
	}
	var out []*snic.Benchmark
	for _, b := range all {
		if b.Function == fn {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w %q", errUnknownFunction, fn)
	}
	return out, nil
}

func runFig4(tb *snic.Testbed, fn string, asFig6 bool) error {
	bs, err := selectedBenchmarks(fn)
	if err != nil {
		return err
	}
	rows := tb.Fig4For(bs)
	if asFig6 {
		snic.RenderFig6(os.Stdout, rows)
	} else {
		snic.RenderFig4(os.Stdout, rows)
	}
	return nil
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

func runStrategies(tbed *snic.Testbed, opts []snic.Option) error {
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
	for _, run := range []struct {
		name string
		lb   snic.LoadBalancer
	}{
		{"accelerator only", snic.LoadBalancer{SpillQueueThreshold: 1 << 30, HWAssist: true}},
		{"software balancer (paper's prototype)", snic.SoftwareBalancer()},
		{"hardware-assisted balancer (proposed)", snic.HardwareBalancer()},
	} {
		res, err := execute(tbed, snic.Workload{Kind: snic.WorkloadBalanced, Balancer: &run.lb,
			Trace: tr, HostCores: 8, Seed: 1})
		if err != nil {
			return err
		}
		fmt.Printf("  %-40s %v\n", run.name, *res.Balanced)
	}
	return nil
}

// runFaults replays the hyperscaler trace while injecting the three
// stock fault scenarios, with the health-aware router failing REM work
// over to the host. The first row is the fault-free baseline. Scenario
// descriptions print before any replay starts, so stdout is identical
// at every -j even though the scenarios replay concurrently.
func runFaults(tbed *snic.Testbed) error {
	fmt.Println("== Fault scenarios: REM trace replay with failover ==")
	tr := snic.HyperscalerTrace().Compress(400 * snic.Microsecond)
	router := func() *snic.HealthRouter {
		return snic.NewHealthRouter(snic.HardwareBalancer(), snic.DefaultFailoverPolicy())
	}
	scns := snic.DefaultFaultScenarios(tr.Duration())
	for _, scn := range scns {
		fmt.Printf("  %-12s %s\n", scn.Name+":", scn.Desc)
	}
	base, err := execute(tbed, snic.Workload{Kind: snic.WorkloadFaulted, Scenario: &snic.FaultScenario{Name: "baseline"},
		Router: router(), Trace: tr, HostCores: 2, Seed: 42})
	if err != nil {
		return err
	}
	rows := tbed.RunFaultedSet(scns, router, tr, 2, 42)
	snic.RenderFaults(os.Stdout, *base.Fault, rows)
	return nil
}

// execute runs one workload; its error names the workload kind.
func execute(tb *snic.Testbed, w snic.Workload) (snic.Result, error) {
	res, err := tb.Execute(w)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.Kind, err)
	}
	return res, nil
}

// runFleet simulates a 36-server heterogeneous datacenter on the
// diurnal trace scaled to fleet-level offered load, compares the four
// dispatch policies, and then runs the provisioning search that
// generalizes Table 5.
func runFleet(tbed *snic.Testbed) error {
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
			return fmt.Errorf("fleet %s: %w", pol, err)
		}
		rows = append(rows, res)
	}
	snic.RenderFleet(os.Stdout, rows)
	fmt.Println()
	snic.RenderFleetServers(os.Stdout, rows[2]) // the SLO-aware run

	fmt.Println("\n== Provisioning search (generalized Table 5) ==")
	prov, err := tbed.ProvisionTable5(snic.ProvisionOpts{})
	if err != nil {
		return fmt.Errorf("provision: %w", err)
	}
	snic.RenderProvision(os.Stdout, prov)
	return nil
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

func runFunctional() error {
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
		return functionalFailures(failures)
	}
	fmt.Println("all implementations verified against their oracles")
	return nil
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
