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

// Span names used on the request track. Stage children cover every
// station a request crosses: the wire, the stack, the core-pool queue
// and service, the accelerator engine, and the return path.
const (
	spanRequest = "request"
	spanIngress = "wire+switch" // client→server serialization + eSwitch
	spanStackRx = "stack-rx"    // fixed RX-side stack/PCIe delay
	spanQueue   = "queue"       // waiting for a core
	spanService = "cpu-service" // run-to-completion on a core
	spanStaging = "staging"     // SNIC staging-core work before an engine
	spanEngine  = "engine"      // accelerator batch residency
	spanReturn  = "wire-return" // TX-side stack + server→client wire
	spanDevice  = "device"      // storage-target service time
)

// newRecorder derives a run's recorder from its memoization key: the
// run ID is a pure function of the key, so two workers racing the same
// run produce the same ID and the collector deduplicates them.
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

// instrumentTestbed installs the recorder and/or invariant checker as
// observers on every resource, registers the standard gauge set and
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
	o := observe(rec, chk)
	tb.HostPool.Instrument("pool/host", o)
	tb.SNICPool.Instrument("pool/snic", o)
	tb.StagingPool.Instrument("pool/staging", o)
	tb.REM.Observe("engine/rem", o, o)
	tb.Deflate.Observe("engine/deflate", o, o)
	tb.PKA.Observe("engine/pka", o)
	tb.Wire.Observe(o)
	tb.Bus.Observe(o)
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
	rec.Gauge("pcie/up/backlog", "s", 0, func() float64 { return tb.Bus.UpBacklog().Seconds() })
	rec.Gauge("pcie/down/backlog", "s", 0, func() float64 { return tb.Bus.DownBacklog().Seconds() })
	rec.Gauge("power/server", "W", tb.BMC.Period, func() float64 { return float64(tb.BMC.Reading()) })
	rec.Gauge("power/snic", "W", tb.YoctoWatt.Period, func() float64 { return float64(tb.YoctoWatt.Reading()) })

	rec.StartSampler(tb.Eng)
}

// finish ends a run. With checks on it first audits the run: the
// ledger against the run's own counters, the conservation equations,
// and the span tree; any violation panics with the typed
// *invariant.Violation. The audit comes first because it reads the
// run's spans, which Attach may drop. A failover replay may record
// stragglers: a request abandoned at its retry timeout closes its root
// span while a stale copy still in service records a child afterwards.
// Then finish folds the run's engine profile into the profiler, stamps
// the recorder's end-of-run counters and hands the recorder to the
// collector.
func (r *Runner) finish(ctx *runctx) {
	if chk := ctx.chk; chk != nil {
		now := ctx.tb.Eng.Now()
		chk.VerifyCounts(uint64(ctx.sent), uint64(ctx.done), now)
		if err := chk.Finish(now); err != nil {
			panic(err)
		}
		if err := invariant.CheckSpans(ctx.rec, invariant.SpanCheckOpts{AllowStragglers: ctx.fo != nil}); err != nil {
			panic(err)
		}
	}
	r.Prof.NoteEngine(ctx.tb.Eng)
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
	if ctx.phaseSpans != nil {
		// Per-phase accounting lands in the registry so manifests show
		// where the fallback policy routed work, phase by phase.
		for i := range ctx.tally {
			scope := rec.Metrics().Scope("phase/" + ctx.tally[i].Name)
			scope.Counter("served", "reqs").Set(float64(ctx.tally[i].Served))
			scope.Counter("spilled", "reqs").Set(float64(ctx.tally[i].Spilled))
			scope.Counter("dropped", "reqs").Set(float64(ctx.tally[i].Dropped))
		}
	}
	if ctx.tbl != nil {
		ctx.flowCounters(rec.Metrics().Scope("flow"))
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
	// The recorder's gauges keep the testbed, and through its sinks this
	// run, alive until export: let the drained run's free lists, and a
	// routed run's flight table, go.
	ctx.freeReqs, ctx.freePkts = nil, nil
	ctx.flights = nil
	r.Telemetry.Attach(rec)
}

// openRequest opens a request root span at the current virtual time.
// Returns 0 (untraced) when telemetry is off.
//
//snicvet:hotpath
func (ctx *runctx) openRequest() obs.SpanID {
	if ctx.rec == nil {
		return 0
	}
	return ctx.rec.Open(obs.TrackRequests, spanRequest, ctx.tb.Eng.Now())
}

// stage records one stage child span of a request. root==0 (telemetry
// off, or an untraced packet) makes this a no-op.
//
//snicvet:hotpath
func (ctx *runctx) stage(root obs.SpanID, name string, start, end sim.Time) {
	if root == 0 {
		return
	}
	ctx.rec.Span(obs.TrackRequests, name, root, start, end)
}

// closeRequest ends a request root span at the current virtual time.
//
//snicvet:hotpath
func (ctx *runctx) closeRequest(root obs.SpanID) {
	if root == 0 {
		return
	}
	ctx.rec.Close(root, ctx.tb.Eng.Now())
}
