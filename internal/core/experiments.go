package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file drives the paper's evaluation: Fig. 4 (normalized maximum
// throughput and p99 across all functions), Fig. 5 (REM rate sweep),
// Fig. 6 (power and energy efficiency), Fig. 7 + Table 4 (hyperscaler
// trace replay), and the §5.3 strategy experiments. Table 5 lives in
// package tco, fed by these measurements.

// Fig4Row is one function/variant of Fig. 4: the host measurement, the
// SNIC-side measurement (accelerator when one exists), and the
// normalized ratios the paper plots.
type Fig4Row struct {
	Config *Config
	Host   Measurement
	SNIC   Measurement

	TputRatio float64 // SNIC ÷ host maximum sustainable throughput
	P99Ratio  float64 // SNIC ÷ host p99 at the max-throughput point
	EffRatio  float64 // SNIC ÷ host system-wide energy efficiency (Fig. 6)
}

func (r Fig4Row) String() string {
	return fmt.Sprintf("%-22s tput %.2fx  p99 %.2fx  eff %.2fx",
		r.Config.Name(), r.TputRatio, r.P99Ratio, r.EffRatio)
}

// Fig4 measures every catalog entry on the host and on its Fig. 4 SNIC
// platform and returns the normalized rows (also the data behind Fig. 6).
func (r *Runner) Fig4() []Fig4Row {
	return r.Fig4For(Catalog())
}

// Fig4For measures the given subset. Rows compute concurrently up to
// r.Parallelism and merge in catalog order, so the output is identical
// at every parallelism setting.
func (r *Runner) Fig4For(configs []*Config) []Fig4Row {
	rows := make([]Fig4Row, len(configs))
	prog := r.newProgress(len(configs))
	r.forEachN(len(configs), func(i int) {
		rows[i] = r.fig4Row(configs[i])
		prog.step("fig4 " + configs[i].Name())
	})
	return rows
}

func (r *Runner) fig4Row(cfg *Config) Fig4Row {
	host := r.MaxThroughput(cfg, HostCPU)
	snic := r.MaxThroughput(cfg, cfg.SNICPlatform())
	row := Fig4Row{Config: cfg, Host: host, SNIC: snic}
	if host.TputGbps > 0 {
		row.TputRatio = snic.TputGbps / host.TputGbps
	}
	if host.Latency.P99 > 0 {
		row.P99Ratio = float64(snic.Latency.P99) / float64(host.Latency.P99)
	}
	if host.EffBitsPerJoule > 0 {
		row.EffRatio = snic.EffBitsPerJoule / host.EffBitsPerJoule
	}
	return row
}

// ---- Fig. 5: REM throughput & p99 versus offered rate ----

// Fig5Point is one offered rate of the Fig. 5 sweep.
type Fig5Point struct {
	OfferedGbps float64
	// Measurements per curve; keys are the curve labels of the figure.
	Curves map[string]Measurement
}

// remMTU returns the Fig. 5 variant of a REM config: fixed MTU packets
// (no PCAP mix, so no mixed-traffic match-verification extra).
func remMTU(set trace.RuleSetName) *Config {
	return TraceWorkload("rem", string(set))
}

// TraceWorkload returns a catalog config adapted for trace replay: fixed
// MTU packets in place of the PCAP mix (trace rates are data rates, not
// op rates, so replays need a deterministic wire size). This is the
// workload shape Table 4 replays and package fleet's servers run.
func TraceWorkload(function, variant string) *Config {
	cfg, err := Lookup(function, variant)
	if err != nil {
		panic(err)
	}
	c := *cfg
	c.Mixed = false
	c.ReqSize = nicMTU
	c.Variant = variant + "-mtu"
	return &c
}

// Fig5 sweeps offered rate and measures throughput and p99 for the three
// curves. Rates are in Gb/s of request payload; points compute
// concurrently (each rate is an independent simulation triple, seeded by
// its index) and merge in sweep order.
func (r *Runner) Fig5(rates []float64) []Fig5Point {
	imgCfg := remMTU(trace.RuleSetImage)
	exeCfg := remMTU(trace.RuleSetExecutable)
	points := make([]Fig5Point, len(rates))
	prog := r.newProgress(len(rates))
	r.forEachN(len(rates), func(i int) {
		rate := rates[i]
		opts := DefaultRunOpts()
		opts.Requests = 12000
		opts.OfferedGbps = rate
		opts.Seed = uint64(1000 + i)
		points[i] = Fig5Point{OfferedGbps: rate, Curves: map[string]Measurement{
			"host/file_image":      r.Run(imgCfg, HostCPU, opts),
			"host/file_executable": r.Run(exeCfg, HostCPU, opts),
			"accel":                r.Run(exeCfg, SNICAccel, opts),
		}}
		prog.step(fmt.Sprintf("fig5 %g Gb/s", rate))
	})
	return points
}

// DefaultFig5Rates spans the figure's x-axis up to just below line rate.
func DefaultFig5Rates() []float64 {
	return []float64{5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95}
}

// ---- Fig. 7 / Table 4: hyperscaler trace replay ----

// TraceReplayResult is one platform's Table 4 row.
type TraceReplayResult struct {
	Platform    Platform
	AvgTputGbps float64
	P99         sim.Duration
	AvgPowerW   float64
	Dropped     uint64
	// Sent and Completed expose the replay's request accounting so
	// conservation (Sent == Completed + Dropped at drain) is testable
	// without telemetry.
	Sent      uint64
	Completed uint64
}

func (t TraceReplayResult) String() string {
	return fmt.Sprintf("%-10s  %.2f Gb/s  p99 %v  %.1f W",
		t.Platform, t.AvgTputGbps, t.P99, t.AvgPowerW)
}

// Table4 replays §5.1's workload, the Fig. 7 trace through REM with the
// file_executable rules on MTU packets, on the host CPU and on the SNIC
// accelerator (both platforms concurrently when parallelism allows),
// and reports the table's rows in platform order. Each trace interval
// is compressed to 400 µs for simulation; rates are untouched, so
// averages and tails are preserved. The host needs only two polling
// cores at trace rates, which is what puts its measured power at
// Table 4's ~278 W rather than the 8-core figure.
func (r *Runner) Table4() []TraceReplayResult {
	cfg := remMTU(trace.RuleSetExecutable)
	plats := []Platform{HostCPU, SNICAccel}
	tr := trace.NewHyperscalerTrace(trace.DefaultHyperscalerConfig()).Compress(400 * sim.Microsecond)
	out := make([]TraceReplayResult, len(plats))
	prog := r.newProgress(len(plats))
	r.forEachN(len(plats), func(i int) {
		c := *cfg
		if plats[i] == HostCPU {
			c.HostCores = 2
		}
		out[i] = r.ReplayTrace(&c, plats[i], tr, 0x7ab1e4)
		prog.step("table4 " + string(plats[i]))
	})
	return out
}

// ReplayTrace drives a net-served config with the trace's time-varying
// packet rate and measures the paper's Table 4 metrics. Replays memoize
// like Run does, keyed additionally by the trace's fingerprint.
func (r *Runner) ReplayTrace(cfg *Config, plat Platform, tr *trace.HyperscalerTrace, seed uint64) TraceReplayResult {
	res, err := r.Execute(Workload{Kind: WorkloadReplay, Config: cfg, Platform: plat, Trace: tr, Seed: seed})
	if err != nil {
		panic(err)
	}
	return *res.Replay
}

// replayTrace executes one trace replay on a fresh testbed.
func (r *Runner) replayTrace(cfg *Config, plat Platform, tr *trace.HyperscalerTrace, seed uint64) TraceReplayResult {
	rkey := replayKey(cfg, plat, r.TBConfig, tr, seed)
	rlabel := fmt.Sprintf("replay %s @ %s | seed %d", cfg.Name(), plat, seed)
	ctx := r.newReplayCtx(cfg, plat, r.runSeed(seed), rkey, rlabel)
	// A one-completion warmup: the first completion opens the meter at
	// its own time and is neither metered nor recorded; every later one
	// is, up to the end of the trace.
	ctx.warmupN = 1
	ctx.drive(tr.RatesGbps, tr.Interval)
	r.finish(ctx)

	res := TraceReplayResult{Platform: plat, P99: ctx.hist.P99(), Dropped: ctx.pool.Dropped(),
		Sent: uint64(ctx.sent), Completed: uint64(ctx.done)}
	if ctx.meter != nil {
		ctx.meter.Close(ctx.lastSend)
		res.AvgTputGbps = ctx.meter.Gbps()
	}
	res.AvgPowerW = float64(ctx.tb.Power.Server.Power())
	return res
}

// newReplayCtx wires a trace or fleet-server replay of cfg on plat: a
// net-served run whose stack polls as on a deployed server, whatever
// its kind, and whose packets are fixed-size, since trace rates are
// data rates.
func (r *Runner) newReplayCtx(cfg *Config, plat Platform, seed uint64, key, label string) *runctx {
	ctx := r.netServed(PipelineFromConfig(cfg, plat), seed, key, label)
	ctx.sizes = trace.Fixed(cfg.ReqSize)
	ctx.tb.SetPolling(plat, true)
	return ctx
}
