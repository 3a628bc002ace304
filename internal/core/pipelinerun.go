package core

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Pipeline execution: a pipeline run is a point run whose net-serve path
// is the pipeline's phase chain (see request.go), with the phase spans,
// phase ledgers and phase/ counters only pipeline runs emit.

// PhaseStat is one phase's request accounting in a pipeline run.
type PhaseStat struct {
	Name     string
	Resource PhaseResource
	// Served counts requests the phase completed on its own resource;
	// Spilled those the fallback policy redirected to a host core;
	// Dropped those shed at the phase's queue.
	Served, Spilled, Dropped uint64
}

// PipelineMeasurement is one pipeline operating point: the familiar
// measurement (throughput, latency, power, utilizations) plus per-phase
// request accounting.
type PipelineMeasurement struct {
	Pipeline string
	Policy   string
	// Point carries the standard metrics; Function is the pipeline
	// name, Variant the policy key and Platform the first phase's
	// platform mapping.
	Point Measurement
	// Spilled and Dropped total the per-phase columns.
	Spilled, Dropped uint64
	Phases           []PhaseStat
}

func (m PipelineMeasurement) String() string {
	return fmt.Sprintf("pipeline %s [%s]: %.3f Gb/s, p99 %v, spilled %d, dropped %d",
		m.Pipeline, m.Policy, m.Point.TputGbps, m.Point.Latency.P99, m.Spilled, m.Dropped)
}

// RunPipeline measures one pipeline at one operating point. It is a
// thin adapter over Execute that panics on its error.
func (r *Runner) RunPipeline(ps *PipelineSpec, opts RunOpts) PipelineMeasurement {
	res, err := r.Execute(Workload{Kind: WorkloadPipeline, Pipeline: ps, Opts: opts})
	if err != nil {
		panic(err)
	}
	return *res.Pipeline
}

// pipelineLabel is the run description used in telemetry exports and
// checker labels (no commas — CSV-safe).
func pipelineLabel(ps *PipelineSpec, opts RunOpts) string {
	return fmt.Sprintf("pipeline %s [%s] | off %g Gb/s | req %d | seed %d",
		ps.Name, ps.policy().Key(), opts.OfferedGbps, opts.Requests, opts.Seed)
}

// simulatePipeline builds a fresh testbed and executes one pipeline run.
// Only pipeline runs emit phase spans, phase ledgers and phase/
// counters.
func (r *Runner) simulatePipeline(ps *PipelineSpec, opts RunOpts) PipelineMeasurement {
	ctx := r.netServed(ps, r.runSeed(opts.Seed), pipelineKey(ps, r.TBConfig, opts), pipelineLabel(ps, opts))
	ctx.markPhases()
	ctx.runAt(opts)
	r.finish(ctx)

	pm := PipelineMeasurement{Pipeline: ps.Name, Policy: ctx.pol.Key(), Point: ctx.measurement(), Phases: ctx.tally}
	pm.Point.Function, pm.Point.Variant = ps.Name, pm.Policy
	for i := range ctx.tally {
		pm.Spilled += ctx.tally[i].Spilled
		pm.Dropped += ctx.tally[i].Dropped
	}
	return pm
}

// ---- saturation search ----

// SaturationPoint is one sampled operating point of the load walk.
type SaturationPoint struct {
	OfferedGbps float64
	M           PipelineMeasurement
}

// SaturationResult is one policy's load walk: the sampled curve, the
// knee (the highest offered load still sustained at a reasonable p99 —
// the run_until_saturation criterion), and the measurement there.
type SaturationResult struct {
	Pipeline string
	Policy   string
	Points   []SaturationPoint
	// KneeGbps is 0 when no sampled point sustained its load.
	KneeGbps float64
	Knee     PipelineMeasurement
}

// SaturationOpts shapes the load walk. The zero value walks 12 points
// from 20% to 220% of the pipeline's analytic capacity with
// probe-length runs.
type SaturationOpts struct {
	// Points is the number of sampled loads; 0 means 12.
	Points int
	// MinGbps/MaxGbps bound the walk; 0 derives both from the analytic
	// capacity estimate (0.2× and 2.2×, capped at 98% of line rate).
	MinGbps, MaxGbps float64
	// Requests per point; 0 means the capacity-probe default (6000).
	Requests int
	// Seed perturbs every point's streams.
	Seed uint64
}

// SaturationSearch walks offered load up to the SLO knee for one
// pipeline under one policy (run_until_saturation): points are sampled
// in parallel (byte-identical at any parallelism — each point is an
// independent run), then scanned in load order against the light-load
// baseline's p99. The knee is the highest load with delivered ≥ 97% of
// offered and p99 within the spec's knee multiple of the first point's
// p99. It is a thin adapter over Execute that panics on its error.
func (r *Runner) SaturationSearch(ps *PipelineSpec, so SaturationOpts) SaturationResult {
	res, err := r.Execute(Workload{Kind: WorkloadSaturation, Pipeline: ps, Saturation: so})
	if err != nil {
		panic(err)
	}
	return *res.Saturation
}

// saturationSearch executes one validated saturation walk.
func (r *Runner) saturationSearch(ps *PipelineSpec, so SaturationOpts) SaturationResult {
	n := so.Points
	if n <= 0 {
		n = 12
	}
	if n < 2 {
		n = 2
	}
	lo, hi := so.MinGbps, so.MaxGbps
	if lo <= 0 || hi <= 0 {
		est := pipelineGbps(NewTestbed(r.TBConfig.withCores(ps.HostCores, ps.SNICCores)), r.TBConfig.LinkGbps(), ps)
		if lo <= 0 {
			lo = est * 0.2
		}
		if hi <= 0 {
			hi = math.Min(est*2.2, r.TBConfig.LinkGbps()*0.98)
		}
	}
	if hi <= lo {
		hi = lo * 2
	}
	res := SaturationResult{Pipeline: ps.Name, Policy: ps.policy().Key(),
		Points: make([]SaturationPoint, n)}
	prog := r.newProgress(n)
	label := "saturation " + ps.Name + " [" + res.Policy + "]"
	r.forEachN(n, func(i int) {
		opts := probeOpts(so.Seed + uint64(1000+i))
		if so.Requests > 0 {
			opts.Requests = so.Requests
		}
		opts.OfferedGbps = lo + (hi-lo)*float64(i)/float64(n-1)
		res.Points[i] = SaturationPoint{OfferedGbps: opts.OfferedGbps, M: r.simulatePipeline(ps, opts)}
		prog.step(label)
	})
	// Knee scan: the first point anchors the "reasonable p99" bound.
	p99Cap := sim.Duration(float64(res.Points[0].M.Point.Latency.P99) * ps.kneeMult())
	for i := range res.Points {
		p := &res.Points[i]
		if p.M.Point.DeliveredFrac >= 0.97 && p.M.Point.Latency.P99 <= p99Cap {
			res.KneeGbps = p.OfferedGbps
			res.Knee = p.M
		}
	}
	return res
}
