// Package snic is the public API of the SmartNIC datacenter-tax testbed:
// a deterministic, calibrated simulation of the IISWC 2023 study "Making
// Sense of Using a SmartNIC to Reduce Datacenter Tax from SLO and TCO
// Perspectives" (Huang et al.).
//
// The testbed reproduces the paper's methodology end to end: thirteen
// TCP/UDP-, DPDK- and RDMA-based functions run on three execution
// platforms — the host Xeon CPU, the BlueField-2-like SNIC's Arm cores,
// and its fixed-function accelerators — while calibrated power models
// stand in for the paper's BMC and Yocto-Watt instruments. On top sit
// the paper's experiments (Fig. 4–7, Tables 4–5) and the §5.3 strategies
// (offload advisor, SNIC↔host load balancer).
//
// Quick start:
//
//	bench, _ := snic.LookupBenchmark("redis", "workload_a")
//	res := snic.NewTestbed().MaxThroughput(bench, snic.HostCPU)
//	fmt.Println(res.TputGbps, res.Latency.P99, res.ServerPowerW)
//
// Everything is virtual-time and seeded: identical inputs give identical
// results, byte for byte, regardless of host load or GC behaviour. That
// holds even under parallel execution: NewTestbed accepts functional
// options (WithParallelism, WithSeed, WithHostCores, WithLinkRateGbps,
// WithProgress, ...) and the engine fans independent simulations across
// goroutines while merging results in submission order, so Fig. 4 at
// parallelism 8 is byte-identical to parallelism 1.
package snic

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tco"
	"repro/internal/trace"
)

// Platform is an execution target for a benchmark.
type Platform = core.Platform

// The three platforms of the paper's Table 3.
const (
	HostCPU   = core.HostCPU
	SNICCPU   = core.SNICCPU
	SNICAccel = core.SNICAccel
)

// Benchmark is one function/variant of the paper's benchmark matrix.
type Benchmark = core.Config

// Measurement is one experiment result cell.
type Measurement = core.Measurement

// Fig4Row, Fig5Point and TraceReplayResult are experiment outputs.
type (
	Fig4Row           = core.Fig4Row
	Fig5Point         = core.Fig5Point
	TraceReplayResult = core.TraceReplayResult
)

// Duration is virtual time (nanoseconds).
type Duration = sim.Duration

// Common durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Benchmarks returns the full catalog (Table 3 plus microbenchmarks).
func Benchmarks() []*Benchmark { return core.Catalog() }

// LookupBenchmark finds a catalog entry by function and variant name.
func LookupBenchmark(function, variant string) (*Benchmark, error) {
	return core.Lookup(function, variant)
}

// Testbed runs benchmarks and experiments.
type Testbed struct {
	runner *core.Runner
}

// Option configures a Testbed at construction.
type Option func(*Testbed)

// WithHostCores sets the host CPU core count (paper default: 8).
func WithHostCores(n int) Option {
	return func(t *Testbed) { t.runner.TBConfig.HostCores = n }
}

// WithSNICCores sets the SNIC Arm core count (paper default: 8).
func WithSNICCores(n int) Option {
	return func(t *Testbed) { t.runner.TBConfig.SNICCores = n }
}

// WithLinkRateGbps sets the wire speed; the default is the paper's
// 100 GbE.
func WithLinkRateGbps(gbps float64) Option {
	return func(t *Testbed) { t.runner.TBConfig.LinkRateGbps = gbps }
}

// WithSeed sets the master seed every simulation derives its RNG streams
// from. Identical seeds give byte-identical results.
func WithSeed(seed uint64) Option {
	return func(t *Testbed) { t.runner.TBConfig.Seed = seed }
}

// WithParallelism fans independent simulations across up to n
// goroutines. Results merge in submission order, so figures and tables
// are byte-identical at every setting; 0 and 1 both mean sequential.
func WithParallelism(n int) Option {
	return func(t *Testbed) { t.runner.Parallelism = n }
}

// WithProgress installs a callback invoked as experiment rows complete:
// done of total rows, with a short label for the row just finished.
// Invocations are serialized (the callback needs no locking), but under
// parallelism their order is scheduling-dependent — report counts, don't
// infer sequence.
func WithProgress(fn func(done, total int, label string)) Option {
	return func(t *Testbed) { t.runner.Progress = fn }
}

// Telemetry collects per-run observability data — request spans, sampled
// metrics, counters — from every simulation of the testbeds it is
// attached to, and exports it as a Chrome/Perfetto trace, CSV/JSON
// metrics, or per-run manifests. One Telemetry may serve several
// testbeds; exports are deterministic (byte-identical at any
// parallelism). A nil or absent Telemetry costs nothing: with no
// collector attached every hook in the engine is a nil check.
type Telemetry struct {
	c *obs.Collector
}

// NewTelemetry returns an empty collector.
func NewTelemetry() *Telemetry { return &Telemetry{c: obs.NewCollector()} }

// EnableTrace makes every run recorded from then on keep its spans so
// WriteTrace can export them: call it before the runs, not only before
// exporting. Without it a run counts its spans for the manifests and
// stores none, so recording costs about what a bare run does; WriteTrace
// then returns obs.ErrSpansDropped.
func (t *Telemetry) EnableTrace() *Telemetry {
	t.c.EnableTrace()
	return t
}

// WithTelemetry attaches a collector to the testbed: every simulation it
// runs records into tel.
func WithTelemetry(tel *Telemetry) Option {
	return func(t *Testbed) {
		if tel != nil {
			t.runner.Telemetry = tel.c
		}
	}
}

// SelfProfile is the aggregated simulator self-profile: events
// executed, event-heap high-water, memo-cache traffic and worker-pool
// fan-out across every simulation of the testbeds a Profiler is
// attached to.
type SelfProfile = core.SelfProfile

// Profiler collects simulator self-profiling from every testbed it is
// attached to — the "how hard did the simulator work" counterpart of
// Telemetry's "what did the model do". All counters are virtual-state
// only, so a profile is byte-identical across runs and at any
// parallelism, unless two workers look up one memo-cache key at once
// and both simulate it, which no snicbench experiment does. A nil or
// absent Profiler costs nothing.
type Profiler struct {
	p *core.Profiler
}

// NewProfiler returns an empty self-profiler.
func NewProfiler() *Profiler { return &Profiler{p: core.NewProfiler()} }

// Snapshot returns the headline aggregate.
func (p *Profiler) Snapshot() SelfProfile { return p.p.Snapshot() }

// WriteProfile writes the full metric snapshot as name-sorted JSON —
// the profile.json payload of `snicbench -profile`.
func (p *Profiler) WriteProfile(w io.Writer) error { return p.p.WriteProfile(w) }

// WithSelfProfile attaches a self-profiler to the testbed: every
// simulation's engine counters, every memo-cache lookup and every
// worker-pool fan-out is folded into prof.
func WithSelfProfile(prof *Profiler) Option {
	return func(t *Testbed) {
		if prof != nil {
			t.runner.SetProfiler(prof.p)
		}
	}
}

// WithInvariantChecks enables checked execution: every simulation
// validates the engine's physical laws online — request and byte
// conservation, causality, clock monotonicity, queue sanity — and
// panics with a typed *invariant.Violation carrying the run label,
// virtual time, station and request the moment one breaks. Results are
// byte-identical with checks on or off (the checker is a pure observer);
// the cost is bookkeeping proportional to events, so keep it off for
// timing-sensitive benchmarking and on everywhere else. See
// internal/invariant and `snicbench -check`.
func WithInvariantChecks() Option {
	return func(t *Testbed) { t.runner.Checks = true }
}

// WriteTrace writes all collected runs as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. It needs
// EnableTrace before the runs are recorded.
func (t *Telemetry) WriteTrace(w io.Writer) error { return t.c.WriteTrace(w) }

// WriteMetricsCSV writes every sampled series as long-format CSV.
func (t *Telemetry) WriteMetricsCSV(w io.Writer) error { return t.c.WriteMetricsCSV(w) }

// WriteMetricsJSON writes every sampled series and counter as JSON.
func (t *Telemetry) WriteMetricsJSON(w io.Writer) error { return t.c.WriteMetricsJSON(w) }

// WriteManifests writes the per-run manifests as JSON.
func (t *Telemetry) WriteManifests(w io.Writer) error { return t.c.WriteManifests(w) }

// NewTestbed returns a testbed with the paper's §3.1 configuration —
// 8 host cores vs the 8-core SNIC, 2 accelerator staging cores,
// 100 GbE — adjusted by any options:
//
//	tb := snic.NewTestbed(
//		snic.WithHostCores(8),
//		snic.WithParallelism(runtime.NumCPU()),
//		snic.WithSeed(7),
//	)
func NewTestbed(opts ...Option) *Testbed {
	t := &Testbed{runner: core.NewRunner()}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Simulations returns how many simulations the testbed has actually
// executed; memo-cache hits don't count.
func (t *Testbed) Simulations() uint64 { return t.runner.Sims() }

// MaxThroughput finds a benchmark's maximum sustainable throughput on a
// platform and measures p99 latency and system-wide power there — the
// paper's §4 methodology.
func (t *Testbed) MaxThroughput(b *Benchmark, p Platform) Measurement {
	return t.runner.MaxThroughput(b, p)
}

// Fig4 reproduces the paper's headline figure over the whole catalog.
// This runs dozens of max-throughput searches; expect tens of seconds.
func (t *Testbed) Fig4() []Fig4Row { return t.runner.Fig4() }

// Fig4For reproduces Fig. 4 for a subset.
func (t *Testbed) Fig4For(benchmarks []*Benchmark) []Fig4Row {
	return t.runner.Fig4For(benchmarks)
}

// Fig5 sweeps REM offered rates (Gb/s) and returns the three curves.
func (t *Testbed) Fig5(rates []float64) []Fig5Point {
	if rates == nil {
		rates = core.DefaultFig5Rates()
	}
	return t.runner.Fig5(rates)
}

// Table4 replays the hyperscaler trace through REM on the host and the
// SNIC accelerator (§5.1).
func (t *Testbed) Table4() []TraceReplayResult {
	return t.runner.Table4()
}

// HyperscalerTrace returns the Fig. 7 synthetic datacenter trace.
func HyperscalerTrace() *trace.HyperscalerTrace {
	return trace.NewHyperscalerTrace(trace.DefaultHyperscalerConfig())
}

// ---- TCO (§5.2) ----

// TCORow is one Table 5 column.
type TCORow = tco.Row

// TCOInput is a fleet measurement for the TCO model.
type TCOInput = tco.AppMeasurement

// PaperTable5 reproduces Table 5 from the published inputs.
func PaperTable5() []TCORow { return tco.PaperTable5() }

// AnalyzeTCO computes a Table 5 column from your own measurements using
// the paper's cost parameters.
func AnalyzeTCO(app string, snicFleet, nicFleet TCOInput) TCORow {
	return tco.PaperCostModel().Analyze(app, snicFleet, nicFleet)
}

// ---- Strategies (§5.3) ----

// Advisor predicts per-platform behaviour and recommends offload
// decisions under an SLO (Strategy 2).
type Advisor = core.Advisor

// Recommendation is the advisor's output.
type Recommendation = core.Recommendation

// NewAdvisor returns an advisor over a testbed built from the options
// (none: the paper's default configuration).
func NewAdvisor(opts ...Option) *Advisor {
	return core.NewAdvisorWith(NewTestbed(opts...).runner)
}

// LoadBalancer splits traffic between the SNIC accelerator and host
// (Strategy 3).
type LoadBalancer = core.LoadBalancer

// BalancedResult reports a balanced replay.
type BalancedResult = core.BalancedResult

// SoftwareBalancer returns the paper's prototyped software balancer
// (per-packet monitoring cost on the SNIC cores, coarse reaction).
func SoftwareBalancer() LoadBalancer { return core.DefaultLoadBalancer() }

// HardwareBalancer returns the paper's proposed hardware-assisted
// balancer (free monitoring, per-packet redirection).
func HardwareBalancer() LoadBalancer { return core.HWLoadBalancer() }

// BurstyTrace builds a synthetic bursty rate trace for balancer studies.
func BurstyTrace(baseGbps, burstGbps float64, points, burstEvery int, interval Duration) *trace.HyperscalerTrace {
	return core.BurstyTrace(baseGbps, burstGbps, points, burstEvery, interval)
}

// ---- Fault injection & failover (robustness experiments) ----

// FaultScenario is a named fault plan replayed against a trace.
type FaultScenario = core.FaultScenario

// FaultResult is one fault-scenario replay report.
type FaultResult = core.FaultResult

// FailoverPolicy carries the timeout/retry/backoff/watermark knobs.
type FailoverPolicy = core.FailoverPolicy

// HealthRouter is the health-aware extension of the §5.3 load balancer.
type HealthRouter = core.HealthRouter

// DefaultFailoverPolicy returns the trace-replay-tuned policy.
func DefaultFailoverPolicy() FailoverPolicy { return core.DefaultFailoverPolicy() }

// NewHealthRouter combines a balancer with a failover policy.
func NewHealthRouter(lb LoadBalancer, pol FailoverPolicy) *HealthRouter {
	return core.NewHealthRouter(lb, pol)
}

// DefaultFaultScenarios returns the three stock scenarios (accelerator
// crash, link flap, SNIC core throttle) placed relative to a trace span.
func DefaultFaultScenarios(span Duration) []FaultScenario {
	return core.DefaultFaultScenarios(span)
}

// RunFaultedSet replays every scenario, fanning them across the
// testbed's parallelism; mkRouter builds a fresh router per scenario so
// no router state is shared. Results merge in scenario order.
func (t *Testbed) RunFaultedSet(scns []FaultScenario, mkRouter func() *HealthRouter, tr *trace.HyperscalerTrace, hostCores int, seed uint64) []FaultResult {
	return t.runner.RunFaultedSet(scns, mkRouter, tr, hostCores, seed)
}

// ---- Rendering ----

// RenderFig4 writes the Fig. 4 tables.
func RenderFig4(w io.Writer, rows []Fig4Row) { report.Fig4(w, rows) }

// RenderFig5 writes the Fig. 5 series.
func RenderFig5(w io.Writer, points []Fig5Point) { report.Fig5(w, points) }

// RenderFig6 writes the Fig. 6 power/efficiency table.
func RenderFig6(w io.Writer, rows []Fig4Row) { report.Fig6(w, rows) }

// RenderFig7 writes the Fig. 7 sparkline.
func RenderFig7(w io.Writer, tr *trace.HyperscalerTrace) { report.Fig7(w, tr.Series(), 96) }

// RenderTable4 writes the Table 4 comparison.
func RenderTable4(w io.Writer, rows []TraceReplayResult) { report.Table4(w, rows) }

// RenderTable5 writes the Table 5 TCO analysis.
func RenderTable5(w io.Writer, rows []TCORow) { report.Table5(w, rows) }

// RenderFaults writes the fault-scenario comparison table.
func RenderFaults(w io.Writer, baseline FaultResult, rows []FaultResult) {
	report.Faults(w, baseline, rows)
}

// FunctionalReport summarizes an execution-driven verification run.
type FunctionalReport = core.FunctionalReport

// RunFunctional executes n REAL operations of a benchmark's actual
// implementation (the matcher matches, Deflate deflates, the KVS stores)
// and verifies every output against an independent oracle. Zero failures
// is the expected result of a correct build.
func RunFunctional(function, variant string, n int, seed uint64) (FunctionalReport, error) {
	return core.RunFunctional(function, variant, n, seed)
}

// Version identifies the testbed release.
const Version = "1.0.0"

// Describe summarizes a benchmark for help output.
func Describe(b *Benchmark) string {
	return fmt.Sprintf("%s [%s, %s] platforms=%v", b.Name(), b.Stack, b.Category, b.Platforms)
}
