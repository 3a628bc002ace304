package core

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Telemetry wiring. A Runner with a non-nil Telemetry collector gives
// every simulation a per-run obs.Recorder: request spans through the
// sinks, gauges polled on a virtual-time sampler, and resource counters
// from the sim-layer observers. With Telemetry nil every hook below
// degenerates to a nil check, so disabled telemetry cannot perturb
// results or cost measurable time.

// Span names used on the request track: the root, and the stage
// children covering every station a request crosses (the wire, the
// stack, the core-pool queue and service, the accelerator engine, and
// the return path). A run interns their labels once (internLabels), and
// its hooks name a stage by its index.
const spanRequest = "request"

// stageSpan indexes a request's stage spans.
type stageSpan uint8

const (
	spanIngress stageSpan = iota // client→server serialization + eSwitch
	spanStackRx                  // fixed RX-side stack/PCIe delay
	spanQueue                    // waiting for a core
	spanService                  // run-to-completion on a core
	spanStaging                  // SNIC staging-core work before an engine
	spanEngine                   // accelerator batch residency
	spanReturn                   // TX-side stack + server→client wire
	spanDevice                   // storage-target service time
	numStageSpans
)

// stageNames are the stage spans' names.
var stageNames = [numStageSpans]string{
	spanIngress: "wire+switch",
	spanStackRx: "stack-rx",
	spanQueue:   "queue",
	spanService: "cpu-service",
	spanStaging: "staging",
	spanEngine:  "engine",
	spanReturn:  "wire-return",
	spanDevice:  "device",
}

// newRecorder derives a run's recorder from its run key (the memo key,
// for the families that memoize): the run ID is a pure function of the
// key, so two workers racing the same run produce the same ID and the
// collector deduplicates them.
func (r *Runner) newRecorder(key, label string) *obs.Recorder {
	if r.Telemetry == nil {
		return nil
	}
	return r.Telemetry.NewRecorder(obs.DeriveRunID(key), label)
}

// runLabel is the human-readable run description used in exports. It
// never contains commas (CSV) and is unique per memo key in practice;
// export order falls back to run ID on label ties.
func runLabel(cfg *Config, plat Platform, opts RunOpts) string {
	return fmt.Sprintf("run %s @ %s | off %g Gb/s | req %d | seed %d",
		cfg.Name(), plat, opts.OfferedGbps, opts.Requests, opts.Seed)
}

// instrumentTestbed binds the recorder and/or invariant checker to every
// resource as its observer, registers the standard gauge set and
// starts the virtual-time sampler (telemetry only). Pool/engine/link
// gauges sample at the 1 ms default; the power gauges sample at their
// instrument's cadence (BMC 1 Hz, Yocto-Watt 10 Hz) with the
// instrument's quantization, mirroring what the paper's rig would have
// recorded.
func instrumentTestbed(tb *Testbed, rec *obs.Recorder, chk *invariant.Checker) {
	if rec == nil && chk == nil {
		return
	}
	registerPools(tb, chk)
	tb.HostPool.Instrument(bind(rec, chk, "pool/host"))
	tb.SNICPool.Instrument(bind(rec, chk, "pool/snic"))
	tb.StagingPool.Instrument(bind(rec, chk, "pool/staging"))
	rem := bind(rec, chk, "engine/rem")
	tb.REM.Observe(rem, rem)
	deflate := bind(rec, chk, "engine/deflate")
	tb.Deflate.Observe(deflate, deflate)
	tb.PKA.Observe(bind(rec, chk, "engine/pka"))
	tb.Wire.Observe(bind(rec, chk, "wire/c2s"), bind(rec, chk, "wire/s2c"))
	if rec == nil {
		return
	}

	rec.Gauge("pool/host/queue", "jobs", 0, func() float64 { return float64(tb.HostPool.QueueLen()) })
	rec.Gauge("pool/host/busy", "cores", 0, func() float64 { return float64(tb.HostPool.Busy()) })
	rec.Gauge("pool/snic/queue", "jobs", 0, func() float64 { return float64(tb.SNICPool.QueueLen()) })
	rec.Gauge("pool/snic/busy", "cores", 0, func() float64 { return float64(tb.SNICPool.Busy()) })
	rec.Gauge("pool/staging/queue", "jobs", 0, func() float64 { return float64(tb.StagingPool.QueueLen()) })
	rec.Gauge("pool/staging/busy", "cores", 0, func() float64 { return float64(tb.StagingPool.Busy()) })
	rec.Gauge("engine/rem/queue", "batches", 0, func() float64 { return float64(tb.REM.QueueLen()) })
	rec.Gauge("engine/rem/util", "frac", 0, tb.REM.Utilization)
	rec.Gauge("engine/deflate/queue", "batches", 0, func() float64 { return float64(tb.Deflate.QueueLen()) })
	rec.Gauge("engine/deflate/util", "frac", 0, tb.Deflate.Utilization)
	rec.Gauge("engine/pka/queue", "cmds", 0, func() float64 { return float64(tb.PKA.QueueLen()) })
	rec.Gauge("engine/pka/util", "frac", 0, tb.PKA.Utilization)
	rec.Gauge("wire/c2s/backlog", "s", 0, func() float64 { return tb.Wire.ServerDirBacklog().Seconds() })
	rec.Gauge("wire/s2c/backlog", "s", 0, func() float64 { return tb.Wire.ClientDirBacklog().Seconds() })
	rec.Gauge("power/server", "W", tb.BMC.Period, func() float64 { return float64(tb.BMC.Reading()) })
	rec.Gauge("power/snic", "W", tb.YoctoWatt.Period, func() float64 { return float64(tb.YoctoWatt.Reading()) })

	rec.StartSampler(tb.Eng)
}

// finish ends a run. With checks on it first audits the ledger against
// the run's own counters and the conservation equations; any violation
// panics with the typed *invariant.Violation. Then finish folds the
// run's engine profile into the profiler, stamps the recorder's
// end-of-run counters and hands the recorder to the collector.
func (r *Runner) finish(ctx *runctx) {
	if r.finished != nil {
		r.finished(ctx)
	}
	if chk := ctx.chk; chk != nil {
		now := ctx.tb.Eng.Now()
		chk.VerifyCounts(uint64(ctx.sent), uint64(ctx.done), now)
		if err := chk.Finish(now); err != nil {
			panic(err)
		}
	}
	r.prof.NoteEngine(ctx.tb.Eng)
	rec := ctx.rec
	if rec == nil {
		return
	}
	rec.SetCount("requests.sent", float64(ctx.sent))
	rec.SetCount("requests.completed", float64(ctx.done))
	if ctx.router != nil {
		rec.SetCount("requests.dropped", float64(ctx.dropped))
	} else {
		rec.SetCount("pool.shed", float64(ctx.pool.Dropped()))
		rec.SetCount("wire.lost", float64(ctx.tb.Wire.Lost()))
	}
	if ctx.phaseMarks != nil {
		// Per-phase accounting lands in the registry so manifests show
		// where the fallback policy routed work, phase by phase.
		for i := range ctx.tally {
			ph := "phase/" + ctx.tally[i].Name
			rec.SetCount(ph+"/served", float64(ctx.tally[i].Served))
			rec.SetCount(ph+"/spilled", float64(ctx.tally[i].Spilled))
			rec.SetCount(ph+"/dropped", float64(ctx.tally[i].Dropped))
		}
	}
	if ctx.tbl != nil {
		ctx.flowCounters()
	}
	if fo := ctx.fo; fo != nil {
		// The failover accounting, and the sensor traces with any dropout
		// gap as series beside the gauge-sampled power readings.
		tb := ctx.tb
		rec.SetCount("failover.retries", float64(fo.retries))
		rec.SetCount("failover.rescued", float64(fo.rescued))
		rec.SetCount("failover.failed_over", float64(ctx.failedOver))
		rec.SetCount("sensor.bmc.missed", float64(tb.BMC.MissedSamples()))
		rec.SetCount("sensor.yoctowatt.missed", float64(tb.YoctoWatt.MissedSamples()))
		rec.AddSeries("power/bmc-trace", "W", tb.BMC.Period, tb.BMC.Trace.Times, tb.BMC.Trace.Values)
		rec.AddSeries("power/yoctowatt-trace", "W", tb.YoctoWatt.Period, tb.YoctoWatt.Trace.Times, tb.YoctoWatt.Trace.Values)
	}
	r.Telemetry.Attach(rec)
}

// internLabels resolves the run's request-track span labels: the root
// and every stage. Run wiring calls it once, so the hooks below record
// under a label and hash no string.
func (ctx *runctx) internLabels() {
	if ctx.rec == nil {
		return
	}
	ctx.rootLabel = ctx.rec.Intern(spanRequest)
	for s := range ctx.stageLabels {
		ctx.stageLabels[s] = ctx.rec.Intern(stageNames[s])
	}
}

// openRequest opens a request root span at the current virtual time.
// Returns 0 (untraced) when telemetry is off.
//
//snicvet:hotpath
func (ctx *runctx) openRequest() obs.SpanID {
	if ctx.rec == nil {
		return 0
	}
	return ctx.rec.Begin(ctx.rootLabel, 0, ctx.tb.Eng.Now())
}

// stage hands stage s of request r, which ran from start to end, to
// the run's recorder and checker. With telemetry and checks both off it
// is one test.
//
//snicvet:hotpath
func (ctx *runctx) stage(r *request, s stageSpan, start, end sim.Time) {
	if ctx.childSpans {
		ctx.child(r, ctx.stageLabels[s], stageNames[s], start, end)
	}
}

// child audits a child span of request r, named name, then records it
// under label l. A failover copy still in service after its request
// resolved is stale: its late spans pass the audit.
//
//snicvet:hotpath
func (ctx *runctx) child(r *request, l obs.SpanLabel, name string, start, end sim.Time) {
	if chk := ctx.chk; chk != nil {
		stale := ctx.fo != nil && ctx.flight(r.seq).done
		chk.Span(name, r.seq, r.sentAt, start, end, ctx.tb.Eng.Now(), stale)
	}
	if r.root != 0 {
		ctx.rec.Record(l, r.root, start, end)
	}
}

// closeRequest ends a request root span at the current virtual time.
// A recorder that stores no spans cannot tell a closed root, so each
// root closes once: in finish, or in a routed replay by routeDone,
// abandon or the retry timer, each only for a flight not yet done.
//
//snicvet:hotpath
func (ctx *runctx) closeRequest(root obs.SpanID) {
	if root == 0 {
		return
	}
	ctx.rec.Close(root, ctx.tb.Eng.Now())
}
