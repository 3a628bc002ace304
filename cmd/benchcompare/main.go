// Command benchcompare times the Fig. 4 pipeline and the S22 fleet
// simulation sequentially and in parallel on fresh testbeds, verifies
// each pair produces identical results, and records the comparisons as
// JSON — the repo's standing record of what the parallel engine buys on
// a given machine.
//
// Usage:
//
//	benchcompare [-j N] [-out BENCH_parallel.json] [-fleet-out BENCH_fleet.json] [-pipeline-out BENCH_pipeline.json] [-offload-out BENCH_offload.json] [-events-out BENCH_events.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/snic"
)

// eventsComparison is the self-profiling record: the same workload run
// with telemetry disabled and enabled, with the simulator's own event
// counters alongside wall time. events/sec is the simulator's native
// throughput unit — it is what the heap, the free list, and the span
// pool actually move — so regressions show up here before they show up
// in any one experiment's runtime.
type eventsComparison struct {
	Experiment           string  `json:"experiment"`
	Benchmarks           int     `json:"benchmarks"`
	CPUs                 int     `json:"cpus"`
	Events               uint64  `json:"events"`
	EventsEnabled        uint64  `json:"events_telemetry_enabled"`
	HeapPeak             int     `json:"heap_peak"`
	DisabledSec          float64 `json:"telemetry_disabled_sec"`
	EnabledSec           float64 `json:"telemetry_enabled_sec"`
	DisabledEventsPerSec float64 `json:"telemetry_disabled_events_per_sec"`
	EnabledEventsPerSec  float64 `json:"telemetry_enabled_events_per_sec"`
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`
	// AllocsPerEvent is heap allocations per simulated event over the
	// telemetry-enabled leg (mallocs delta / events) — setup, export and
	// amortized growth included, so small and stable but not zero.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// HotPathAllocsPerOp is testing.AllocsPerRun over a warmed
	// telemetry-enabled closed loop — the steady-state scheduling path
	// alone. The //snicvet:hotpath contract pins it at exactly zero.
	HotPathAllocsPerOp float64 `json:"hot_path_allocs_per_op"`
	Identical          bool    `json:"identical_results"`
}

// comparison is the JSON record benchcompare writes.
type comparison struct {
	Experiment     string  `json:"experiment"`
	Benchmarks     int     `json:"benchmarks"`
	CPUs           int     `json:"cpus"`
	Parallelism    int     `json:"parallelism"`
	SequentialSec  float64 `json:"sequential_sec"`
	ParallelSec    float64 `json:"parallel_sec"`
	Speedup        float64 `json:"speedup"`
	Identical      bool    `json:"identical_results"`
	SimsSequential uint64  `json:"sims_sequential"`
	SimsParallel   uint64  `json:"sims_parallel"`
	// Knees records each saturation walk's knee (pipeline leg only) —
	// the standing evidence that drop and spill measure *different*
	// knees now that every engine exports a queue counter.
	Knees []knee `json:"knees,omitempty"`
	// Policies records each offload policy's outcome (offload leg only)
	// — the standing evidence that the adaptive threshold controller
	// beats both static policies on SLO attainment and drop rate under
	// flow churn.
	Policies []offloadStat `json:"policies,omitempty"`
}

// knee is one (pipeline, policy) walk's located saturation knee.
type knee struct {
	Pipeline string  `json:"pipeline"`
	Policy   string  `json:"policy"`
	KneeGbps float64 `json:"knee_gbps"`
}

// offloadStat is one offload policy's headline numbers on the churn
// scenario.
type offloadStat struct {
	Policy        string  `json:"policy"`
	SLOAttainment float64 `json:"slo_attainment"`
	DropRate      float64 `json:"drop_rate"`
	FastPathShare float64 `json:"fast_path_share"`
	InsertRejects uint64  `json:"insert_rejects"`
	Thrash        uint64  `json:"thrash"`
	ThresholdMin  int     `json:"threshold_min"`
	ThresholdMax  int     `json:"threshold_max"`
	ThresholdEnd  int     `json:"threshold_final"`
}

// writeComparison validates and records one seq-vs-parallel comparison.
func writeComparison(c comparison, path string) {
	if !c.Identical {
		fmt.Fprintf(os.Stderr, "benchcompare: %s: PARALLEL RESULTS DIVERGE FROM SEQUENTIAL\n", c.Experiment)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d benchmarks, sequential %.2fs, parallel(-j %d) %.2fs, speedup %.2fx, identical=%v\n",
		c.Experiment, c.Benchmarks, c.SequentialSec, c.Parallelism, c.ParallelSec, c.Speedup, c.Identical)
}

func main() {
	jobs := flag.Int("j", runtime.NumCPU(), "parallelism for the parallel leg")
	out := flag.String("out", "BENCH_parallel.json", "output path")
	fleetOut := flag.String("fleet-out", "BENCH_fleet.json", "fleet comparison output path")
	pipelineOut := flag.String("pipeline-out", "BENCH_pipeline.json", "pipeline saturation comparison output path")
	offloadOut := flag.String("offload-out", "BENCH_offload.json", "flow-offload policy comparison output path")
	eventsOut := flag.String("events-out", "BENCH_events.json", "events/sec self-profile output path")
	flag.Parse()

	// The software-only group is the costliest Fig. 4 slice: enough work
	// that the comparison means something, small enough to finish fast.
	var subset []*core.Config
	for _, cfg := range core.Catalog() {
		if cfg.Category == core.CategorySoftware {
			subset = append(subset, cfg)
		}
	}

	run := func(j int) ([]core.Fig4Row, float64, uint64) {
		tb := snic.NewTestbed(snic.WithParallelism(j))
		start := time.Now()
		rows := tb.Fig4For(subset)
		return rows, time.Since(start).Seconds(), tb.Simulations()
	}

	seqRows, seqSec, seqSims := run(1)
	parRows, parSec, parSims := run(*jobs)

	c := comparison{
		Experiment:     "fig4/software",
		Benchmarks:     len(subset),
		CPUs:           runtime.NumCPU(),
		Parallelism:    *jobs,
		SequentialSec:  seqSec,
		ParallelSec:    parSec,
		Identical:      reflect.DeepEqual(seqRows, parRows),
		SimsSequential: seqSims,
		SimsParallel:   parSims,
	}
	if parSec > 0 {
		c.Speedup = seqSec / parSec
	}
	writeComparison(c, *out)

	// The fleet leg: a mixed fleet on the scaled diurnal trace. The
	// dispatcher hands every server its own rate series, so the replay
	// fan-out is the parallel engine's natural workload.
	classes := []snic.FleetClass{snic.NICHosts(12), snic.SNICCPUs(8), snic.SNICAccels(4)}
	servers := 0
	for _, cl := range classes {
		servers += cl.Count
	}
	tr := snic.HyperscalerTrace().Subsample(8).Scale(float64(servers)).Compress(400 * snic.Microsecond)
	runFleet := func(j int) (snic.FleetResult, float64, uint64) {
		tb := snic.NewTestbed(snic.WithParallelism(j))
		start := time.Now()
		res, err := tb.RunFleet(snic.FleetConfig{
			Classes: classes, Policy: snic.SLOAware, Trace: tr, Seed: 42,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcompare: fleet:", err)
			os.Exit(1)
		}
		return res, time.Since(start).Seconds(), tb.Simulations()
	}

	seqFleet, seqFleetSec, seqFleetSims := runFleet(1)
	parFleet, parFleetSec, parFleetSims := runFleet(*jobs)

	fc := comparison{
		Experiment:     "fleet/slo-aware",
		Benchmarks:     servers,
		CPUs:           runtime.NumCPU(),
		Parallelism:    *jobs,
		SequentialSec:  seqFleetSec,
		ParallelSec:    parFleetSec,
		Identical:      reflect.DeepEqual(seqFleet, parFleet),
		SimsSequential: seqFleetSims,
		SimsParallel:   parFleetSims,
	}
	if parFleetSec > 0 {
		fc.Speedup = seqFleetSec / parFleetSec
	}
	writeComparison(fc, *fleetOut)

	// The pipeline leg: both tax-chain exemplars' saturation walks under
	// both fallback policies. Every sampled load point is an independent
	// simulation, so the walk fans out cleanly.
	pipeSpecs := func() []*snic.PipelineSpec {
		var out []*snic.PipelineSpec
		for _, mk := range []func() *snic.PipelineSpec{
			snic.CryptoCompressSendPipeline, snic.NATIDSPipeline,
		} {
			for _, pol := range []snic.FallbackPolicy{snic.DropWhenFull{}, snic.SpillToHost{}} {
				ps := mk()
				ps.Fallback = pol
				out = append(out, ps)
			}
		}
		return out
	}
	runPipelines := func(j int) ([]snic.SaturationResult, float64, uint64) {
		tb := snic.NewTestbed(snic.WithParallelism(j))
		start := time.Now()
		var walks []snic.SaturationResult
		for _, ps := range pipeSpecs() {
			walks = append(walks, tb.SaturationSearch(ps, snic.SaturationOpts{Seed: 42}))
		}
		return walks, time.Since(start).Seconds(), tb.Simulations()
	}

	seqPipe, seqPipeSec, seqPipeSims := runPipelines(1)
	parPipe, parPipeSec, parPipeSims := runPipelines(*jobs)

	pc := comparison{
		Experiment:     "pipeline/saturation",
		Benchmarks:     len(seqPipe),
		CPUs:           runtime.NumCPU(),
		Parallelism:    *jobs,
		SequentialSec:  seqPipeSec,
		ParallelSec:    parPipeSec,
		Identical:      reflect.DeepEqual(seqPipe, parPipe),
		SimsSequential: seqPipeSims,
		SimsParallel:   parPipeSims,
	}
	if parPipeSec > 0 {
		pc.Speedup = seqPipeSec / parPipeSec
	}
	for _, w := range seqPipe {
		pc.Knees = append(pc.Knees, knee{Pipeline: w.Pipeline, Policy: w.Policy, KneeGbps: w.KneeGbps})
	}
	writeComparison(pc, *pipelineOut)

	// The offload leg: the three threshold policies on the churn
	// scenario. Each policy is an independent simulation, so the
	// experiment fans out across -j; the JSON keeps the per-policy SLO
	// attainment and drop rate as the standing record that the adaptive
	// controller wins under churn.
	offSpec := snic.DefaultOffloadSpec()
	offPols := snic.DefaultOffloadPolicies()
	runOffload := func(j int) ([]snic.OffloadResult, float64, uint64) {
		tb := snic.NewTestbed(snic.WithParallelism(j))
		start := time.Now()
		rs := tb.OffloadExperiment(offSpec, offPols)
		return rs, time.Since(start).Seconds(), tb.Simulations()
	}

	seqOff, seqOffSec, seqOffSims := runOffload(1)
	parOff, parOffSec, parOffSims := runOffload(*jobs)

	oc := comparison{
		Experiment:     "offload/churn",
		Benchmarks:     len(seqOff),
		CPUs:           runtime.NumCPU(),
		Parallelism:    *jobs,
		SequentialSec:  seqOffSec,
		ParallelSec:    parOffSec,
		Identical:      reflect.DeepEqual(seqOff, parOff),
		SimsSequential: seqOffSims,
		SimsParallel:   parOffSims,
	}
	if parOffSec > 0 {
		oc.Speedup = seqOffSec / parOffSec
	}
	for _, r := range seqOff {
		oc.Policies = append(oc.Policies, offloadStat{
			Policy:        r.Policy,
			SLOAttainment: r.SLOAttainment,
			DropRate:      r.DropRate,
			FastPathShare: r.FastPathShare(),
			InsertRejects: r.InsertRejects,
			Thrash:        r.Thrash,
			ThresholdMin:  r.ThresholdMin,
			ThresholdMax:  r.ThresholdMax,
			ThresholdEnd:  r.ThresholdFinal,
		})
	}
	writeComparison(oc, *offloadOut)

	// The events leg: the Fig. 4 software subset again, sequentially,
	// with the self-profiler attached — once with telemetry off, once
	// with a live collector. The off leg gives the simulator's native
	// events/sec; the pair gives the enabled-telemetry overhead, which
	// the repo bounds at 15%. Sequential runs keep the event count
	// deterministic (no racing cache misses), and best-of-two wall
	// times damp scheduler noise.
	runEvents := func(withTelemetry bool) ([]core.Fig4Row, float64, snic.SelfProfile) {
		best := -1.0
		var rows []core.Fig4Row
		var sp snic.SelfProfile
		for rep := 0; rep < 2; rep++ {
			prof := snic.NewProfiler()
			opts := []snic.Option{snic.WithParallelism(1), snic.WithSelfProfile(prof)}
			if withTelemetry {
				opts = append(opts, snic.WithTelemetry(snic.NewTelemetry()))
			}
			tb := snic.NewTestbed(opts...)
			start := time.Now()
			rows = tb.Fig4For(subset)
			if sec := time.Since(start).Seconds(); best < 0 || sec < best {
				best = sec
			}
			sp = prof.Snapshot()
		}
		return rows, best, sp
	}

	offRows, offSec, offProf := runEvents(false)
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	onRows, onSec, onProf := runEvents(true)
	runtime.ReadMemStats(&msAfter)

	// The alloc gate compares against the committed baseline, so read it
	// before this run overwrites the file. Baselines from before the
	// alloc columns existed skip the gate (nothing to compare).
	var baseline eventsComparison
	gateOn := false
	if old, err := os.ReadFile(*eventsOut); err == nil {
		var raw map[string]json.RawMessage
		if json.Unmarshal(old, &raw) == nil {
			if _, ok := raw["hot_path_allocs_per_op"]; ok && json.Unmarshal(old, &baseline) == nil {
				gateOn = true
			}
		}
	}

	ec := eventsComparison{
		Experiment: "fig4/software-events",
		Benchmarks: len(subset),
		CPUs:       runtime.NumCPU(),
		// The enabled leg executes more events — the gauge sampler's
		// virtual-time tickers are real heap traffic — so the two
		// counts are reported separately and only the results must
		// match.
		Events:        offProf.Events,
		EventsEnabled: onProf.Events,
		HeapPeak:      offProf.HeapPeak,
		DisabledSec:   offSec,
		EnabledSec:    onSec,
		Identical:     reflect.DeepEqual(offRows, onRows),
	}
	if offSec > 0 {
		ec.DisabledEventsPerSec = float64(offProf.Events) / offSec
		ec.TelemetryOverheadPct = (onSec - offSec) / offSec * 100
	}
	if onSec > 0 {
		ec.EnabledEventsPerSec = float64(onProf.Events) / onSec
	}
	// runEvents does two reps, each a fresh testbed doing the full event
	// count, so the malloc delta spans 2× the reported events.
	if onProf.Events > 0 {
		ec.AllocsPerEvent = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(2*onProf.Events)
	}
	ec.HotPathAllocsPerOp = hotPathAllocsPerOp()
	if !ec.Identical {
		fmt.Fprintln(os.Stderr, "benchcompare: fig4/software-events: TELEMETRY PERTURBS RESULTS")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(ec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*eventsOut, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d events, %.0f events/s off, %.0f events/s on, telemetry overhead %.1f%%, %.3f allocs/event, %.2f hot-path allocs/op, identical=%v\n",
		ec.Experiment, ec.Events, ec.DisabledEventsPerSec, ec.EnabledEventsPerSec,
		ec.TelemetryOverheadPct, ec.AllocsPerEvent, ec.HotPathAllocsPerOp, ec.Identical)
	if ec.TelemetryOverheadPct > 15 {
		fmt.Fprintf(os.Stderr, "benchcompare: warning: telemetry overhead %.1f%% exceeds the 15%% budget\n", ec.TelemetryOverheadPct)
	}
	if gateOn {
		if ec.HotPathAllocsPerOp > baseline.HotPathAllocsPerOp {
			fmt.Fprintf(os.Stderr, "benchcompare: HOT PATH ALLOCATION REGRESSION: %.2f allocs/op, baseline %.2f\n",
				ec.HotPathAllocsPerOp, baseline.HotPathAllocsPerOp)
			os.Exit(1)
		}
		if baseline.AllocsPerEvent > 0 && ec.AllocsPerEvent > baseline.AllocsPerEvent*1.10 {
			fmt.Fprintf(os.Stderr, "benchcompare: PER-EVENT ALLOCATION REGRESSION: %.3f allocs/event, baseline %.3f (+10%% budget)\n",
				ec.AllocsPerEvent, baseline.AllocsPerEvent)
			os.Exit(1)
		}
	}
}

// hotPathAllocsPerOp measures steady-state allocations of the
// telemetry-enabled scheduling path: a warmed closed loop of jobs
// circulating through a station, a link with a standing backlog and a
// churning flow table with a Recorder observing everything — the same
// loop internal/sim pins at zero in TestHotPathZeroAllocs.
func hotPathAllocsPerOp() float64 {
	eng := sim.NewEngine()
	st := sim.NewStation(eng, 2)
	link := sim.NewLink(eng, 100e9, sim.Microsecond)
	table := flow.NewTable(eng, flow.TableConfig{
		Capacity:       8,
		InsertLatency:  2 * sim.Microsecond,
		InsertQueueCap: 4,
		Evict:          flow.EvictLRU,
		ThrashWindow:   sim.Microsecond,
	})
	rec := obs.NewRecorder(1, "hotpath-gate")
	st.Observe("pool", rec)
	link.Observe("wire", rec)
	var next uint64
	for i := 0; i < 8; i++ {
		j := &sim.Job{Service: 3 * sim.Microsecond}
		j.Done = func(start, end sim.Time) {
			next++
			if !table.Lookup(1000, end) {
				table.RequestInsert(1000, 1)
			}
			if id := next % 24; !table.Lookup(id, end) {
				table.RequestInsert(id, 0)
			}
			link.Send(64, nil)
			rec.Count("loop.completions", 1)
			st.Submit(j)
		}
		st.Submit(j)
	}
	// 32 frames of 100 ns circulating on a 1 µs link keep its in-flight
	// ring backlogged and compacting.
	var resend func()
	resend = func() { link.Send(1250, resend) }
	for i := 0; i < 32; i++ {
		link.Send(1250, resend)
	}
	for i := 0; i < 20000; i++ {
		eng.Step()
	}
	return testing.AllocsPerRun(50, func() {
		for i := 0; i < 200; i++ {
			eng.Step()
		}
	})
}
