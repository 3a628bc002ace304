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

// Fig5Curves are the figure's series: host CPU with the two interesting
// rule sets, and the accelerator (one curve — "the SNIC accelerator
// offers almost the same throughput and p99 for the two input rule
// sets").
var Fig5Curves = []string{"host/file_image", "host/file_executable", "accel"}

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

// Table4Config carries the §5.1 replay parameters.
type Table4Config struct {
	Trace *trace.HyperscalerTrace
	// IntervalCompress shortens each trace interval for simulation;
	// rates are untouched, so averages and tails are preserved.
	IntervalCompress sim.Duration
	// HostCores: the host needs only two polling cores at trace rates
	// (this is what puts the measured host power at Table 4's ~278 W
	// rather than the 8-core figure).
	HostCores int
	Seed      uint64
}

// DefaultTable4Config mirrors §5.1: MTU packets, file_executable rules,
// the Fig. 7 trace, host vs SNIC accelerator.
func DefaultTable4Config() Table4Config {
	return Table4Config{
		Trace:            trace.NewHyperscalerTrace(trace.DefaultHyperscalerConfig()),
		IntervalCompress: 400 * sim.Microsecond,
		HostCores:        2,
		Seed:             0x7ab1e4,
	}
}

// Validate rejects malformed replay parameters with a typed
// *ParamError (the fault.Plan.Validate treatment): a missing trace,
// non-positive interval compression or negative core counts would
// otherwise surface as silent nonsense deep in the replay loop.
func (tc Table4Config) Validate() error {
	fail := func(param, reason string) error {
		return &ParamError{Op: "table4", Param: param, Reason: reason}
	}
	if err := validTrace("replay", tc.Trace); err != nil {
		return err
	}
	if tc.IntervalCompress <= 0 {
		return fail("IntervalCompress", "must be positive")
	}
	if tc.HostCores < 0 {
		return fail("HostCores", "must not be negative")
	}
	return nil
}

// Table4 replays the trace through REM on the host CPU and on the SNIC
// accelerator — both platforms concurrently when parallelism allows —
// and reports the table's rows in platform order. Invalid parameters
// panic with the typed validation error.
func (r *Runner) Table4(tc Table4Config) []TraceReplayResult {
	if err := tc.Validate(); err != nil {
		panic(err)
	}
	cfg := remMTU(trace.RuleSetExecutable)
	plats := []Platform{HostCPU, SNICAccel}
	tr := tc.Trace.Compress(tc.IntervalCompress)
	out := make([]TraceReplayResult, len(plats))
	prog := r.newProgress(len(plats))
	r.forEachN(len(plats), func(i int) {
		c := *cfg
		if plats[i] == HostCPU && tc.HostCores > 0 {
			c.HostCores = tc.HostCores
		}
		out[i] = r.ReplayTrace(&c, plats[i], tr, tc.Seed)
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
	ctx.warmupN = 1 // no warmup: the whole trace is the measurement
	ctx.replay(tr.RatesGbps, tr.Interval)
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

// newReplayCtx wires a fresh testbed for a trace or fleet-server replay
// of cfg on plat: pools poll as on a deployed server, the eSwitch feeds
// the config's phase path, and key and label name the run's telemetry.
// Replays send fixed-size packets: trace rates are data rates.
func (r *Runner) newReplayCtx(cfg *Config, plat Platform, seed uint64, key, label string) *runctx {
	tbc := r.TBConfig.withCores(cfg.HostCores, cfg.SNICCores)
	tbc.Seed ^= seed
	ctx := r.newRunctx(tbc, plat, cfg.Stack, seed, key, label)
	ctx.cfg = cfg
	ctx.opts = RunOpts{Requests: 1 << 62, Seed: seed} // the rate series decides the end
	ctx.sizes = trace.Fixed(cfg.ReqSize)
	ctx.setPath(PipelineFromConfig(cfg, plat))
	instrumentTestbed(ctx.tb, ctx.rec, ctx.chk)
	ctx.tb.setPower(plat == HostCPU, plat == SNICCPU, plat == SNICAccel, true)
	ctx.connectSinks()
	return ctx
}

// replay runs the open-loop client over a rate series, one entry per
// interval, until the series ends and the testbed drains.
func (ctx *runctx) replay(rates []float64, interval sim.Duration) {
	ctx.tb.Eng.AtCall(0, &replaySource{ctx: ctx, rates: rates, interval: interval, i: -1}, nil)
	ctx.tb.Eng.Run()
	ctx.finishEngineUtil()
}

// replaySource is the replays' client: Poisson arrivals at each
// interval's rate, none while the rate is zero. An interval starts at
// the first arrival at or after the previous one's end. On an offload
// run each packet carries the next flow of the run's decomposition; on
// a routed run each request opens its flight as it leaves.
type replaySource struct {
	ctx      *runctx
	rates    []float64
	interval sim.Duration
	// i is the current interval (-1 before the first) and end is when
	// it ends.
	i   int
	end sim.Time
	// prog, when set, steps once per interval under label.
	prog  *progressTracker
	label string
}

// HandleEvent enters the next interval when the current one has ended,
// then issues one request, or waits out an idle interval.
//
//snicvet:hotpath
func (s *replaySource) HandleEvent(any) {
	ctx := s.ctx
	eng := ctx.tb.Eng
	if eng.Now() >= s.end {
		s.i++
		if s.i >= len(s.rates) {
			ctx.lastSend = eng.Now()
			return
		}
		s.end = eng.Now().Add(s.interval)
		s.prog.step(s.label)
	}
	rate := s.rates[s.i]
	if rate <= 0 {
		eng.AtCall(s.end, s, nil)
		return
	}
	ctx.sent++
	size := ctx.sizes.Next(ctx.jit)
	pkt := ctx.newPacket(uint64(ctx.sent), size, ctx.openRequest())
	if ctx.asn != nil {
		pkt.Flow, _ = ctx.asn.Next()
	}
	ctx.noteInject(pkt.Seq, size)
	ctx.tb.Wire.SendToServer(pkt, ctx.ingress)
	if ctx.router != nil {
		ctx.routeSent(pkt)
	}
	eng.AfterCall(ctx.arrivals.Gap(size, rate*1e9), s, nil)
}
