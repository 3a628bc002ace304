package core

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The unified Workload API: Workload is the single spec of every run
// family, and Execute validates it with typed errors and dispatches to
// each family's implementation. Run, ReplayTrace, ReplayServer,
// RunFaulted, RunPipeline, SaturationSearch and RunOffload are wrappers
// over Execute that panic on its error, for drivers whose inputs are
// known good; balanced replays run through Execute alone.

// WorkloadKind selects a run family.
type WorkloadKind string

// The run families.
const (
	// WorkloadPoint is one (config, platform, operating point)
	// measurement — the legacy Runner.Run.
	WorkloadPoint WorkloadKind = "point"
	// WorkloadReplay replays a rate trace through one config/platform —
	// the legacy Runner.ReplayTrace (Table 4).
	WorkloadReplay WorkloadKind = "replay"
	// WorkloadServer is one fleet server's interval replay — the legacy
	// Runner.ReplayServer.
	WorkloadServer WorkloadKind = "server"
	// WorkloadFaulted replays a fault scenario through the failover
	// router — the legacy Runner.RunFaulted.
	WorkloadFaulted WorkloadKind = "faulted"
	// WorkloadBalanced replays a trace under the host/SNIC load
	// balancer.
	WorkloadBalanced WorkloadKind = "balanced"
	// WorkloadPipeline measures a multi-phase pipeline at one operating
	// point.
	WorkloadPipeline WorkloadKind = "pipeline"
	// WorkloadSaturation walks a pipeline's offered load to the SLO
	// knee under its fallback policy.
	WorkloadSaturation WorkloadKind = "saturation"
	// WorkloadOffload replays a flow-decomposed trace through the
	// bounded eSwitch flow table under one offload policy.
	WorkloadOffload WorkloadKind = "offload"
)

// Workload is the single run spec. Kind selects the family; the other
// fields are per-family inputs (unused fields are ignored by Validate
// only when genuinely meaningless for the kind).
type Workload struct {
	Kind WorkloadKind

	// Config/Platform drive point, replay and server workloads.
	Config   *Config
	Platform Platform
	// Opts is the operating point for point and pipeline workloads.
	Opts RunOpts

	// Trace drives replay, faulted and balanced workloads.
	Trace *trace.HyperscalerTrace
	// Seed perturbs replay/server/faulted/balanced streams.
	Seed uint64

	// Rates/Interval/Group drive server workloads (fleet replay).
	Rates    []float64
	Interval sim.Duration
	Group    string

	// Scenario/Router drive faulted workloads.
	Scenario *FaultScenario
	Router   *HealthRouter
	// HostCores overrides the host pool for faulted/balanced workloads.
	HostCores int

	// Balancer drives balanced workloads.
	Balancer *LoadBalancer

	// Pipeline drives pipeline and saturation workloads.
	Pipeline *PipelineSpec
	// Saturation shapes the saturation walk.
	Saturation SaturationOpts

	// Offload drives offload workloads.
	Offload *OffloadSpec
}

// Result is a tagged union: exactly the field matching Kind is set.
type Result struct {
	Kind WorkloadKind

	Point      *Measurement
	Replay     *TraceReplayResult
	Server     *ServerReplay
	Fault      *FaultResult
	Balanced   *BalancedResult
	Pipeline   *PipelineMeasurement
	Saturation *SaturationResult
	Offload    *OffloadResult
}

// WorkloadError is the typed validation error Execute rejects malformed
// specs with.
type WorkloadError struct {
	Kind   WorkloadKind
	Field  string
	Reason string
}

// Error implements error.
func (e *WorkloadError) Error() string {
	return fmt.Sprintf("core: %s workload: %s %s", e.Kind, e.Field, e.Reason)
}

// Validate checks the spec for its kind, returning a typed
// *WorkloadError (or a *PipelineError, *ParamError or *fault.PlanError
// from the nested spec validators) on the first problem.
func (w *Workload) Validate() error {
	fail := func(field, reason string) error {
		return &WorkloadError{Kind: w.Kind, Field: field, Reason: reason}
	}
	if !finite(w.Opts.OfferedGbps) {
		return fail("Opts.OfferedGbps", "must be finite")
	}
	if w.Opts.OfferedGbps < 0 {
		return fail("Opts.OfferedGbps", "must not be negative")
	}
	if w.Opts.Requests < 0 {
		return fail("Opts.Requests", "must not be negative")
	}
	if w.Opts.WarmupFrac < 0 || w.Opts.WarmupFrac >= 1 {
		return fail("Opts.WarmupFrac", "must be in [0,1)")
	}
	if w.HostCores < 0 {
		return fail("HostCores", "must not be negative")
	}
	switch w.Kind {
	case WorkloadPoint, WorkloadReplay, WorkloadServer:
		if w.Config == nil {
			return fail("Config", "must be set")
		}
		if !w.Config.HasPlatform(w.Platform) {
			return fail("Platform", fmt.Sprintf("%s does not run on %s", w.Config.Name(), w.Platform))
		}
		// Replays drive the net-serve path, the precondition
		// PipelineFromConfig enforces.
		if w.Kind != WorkloadPoint && w.Config.Mode != ModeNetServe {
			return fail("Config.Mode", fmt.Sprintf("%s is %q: %s workloads replay net-served configs only",
				w.Config.Name(), w.Config.Mode, w.Kind))
		}
	}
	switch w.Kind {
	case WorkloadPoint:
		switch w.Config.Mode {
		case ModeNetServe, ModeStorage, ModeSwitched:
			if w.Opts.OfferedGbps == 0 {
				return fail("Opts.OfferedGbps", fmt.Sprintf("must be positive for the open-loop %s mode", w.Config.Mode))
			}
		case ModeLocal:
		default:
			return fail("Config.Mode", fmt.Sprintf("%s has unknown mode %q", w.Config.Name(), w.Config.Mode))
		}
	case WorkloadReplay:
		if err := validTrace(w.Kind, w.Trace); err != nil {
			return err
		}
	case WorkloadServer:
		if len(w.Rates) == 0 {
			return fail("Rates", "must have at least one interval")
		}
		for _, rate := range w.Rates {
			if !finite(rate) {
				return fail("Rates", "must contain only finite rates")
			}
			if rate < 0 {
				return fail("Rates", "must not contain negative rates")
			}
		}
		if w.Interval <= 0 {
			return fail("Interval", "must be positive")
		}
	case WorkloadFaulted:
		if w.Scenario == nil {
			return fail("Scenario", "must be set")
		}
		if w.Router == nil {
			return fail("Router", "must be set")
		}
		if err := w.Router.LB.Validate(); err != nil {
			return err
		}
		if err := w.Router.Policy.Validate(); err != nil {
			return err
		}
		if err := validTrace(w.Kind, w.Trace); err != nil {
			return err
		}
		if err := w.Scenario.Plan.Validate(faultHorizon(&w.Scenario.Plan, w.Router.Policy, w.Trace)); err != nil {
			return err
		}
	case WorkloadBalanced:
		if w.Balancer == nil {
			return fail("Balancer", "must be set")
		}
		if err := w.Balancer.Validate(); err != nil {
			return err
		}
		if err := validTrace(w.Kind, w.Trace); err != nil {
			return err
		}
	case WorkloadPipeline:
		if w.Pipeline == nil {
			return fail("Pipeline", "must be set")
		}
		if err := w.Pipeline.Validate(); err != nil {
			return err
		}
		if w.Opts.OfferedGbps == 0 {
			return fail("Opts.OfferedGbps", "must be positive: pipelines are driven open loop")
		}
	case WorkloadSaturation:
		if w.Pipeline == nil {
			return fail("Pipeline", "must be set")
		}
		if err := w.Pipeline.Validate(); err != nil {
			return err
		}
		if w.Saturation.Points < 0 {
			return fail("Saturation.Points", "must not be negative")
		}
		if w.Saturation.MinGbps < 0 || w.Saturation.MaxGbps < 0 {
			return fail("Saturation", "load bounds must not be negative")
		}
		if w.Saturation.Requests < 0 {
			return fail("Saturation.Requests", "must not be negative")
		}
	case WorkloadOffload:
		if w.Offload == nil {
			return fail("Offload", "must be set")
		}
		if err := w.Offload.Validate(); err != nil {
			return err
		}
	default:
		return fail("Kind", fmt.Sprintf("unknown kind %q", w.Kind))
	}
	return nil
}

// validTrace validates a rate trace input.
func validTrace(kind WorkloadKind, tr *trace.HyperscalerTrace) error {
	fail := func(field, reason string) error {
		return &WorkloadError{Kind: kind, Field: field, Reason: reason}
	}
	if tr == nil {
		return fail("Trace", "must be set")
	}
	if tr.Interval <= 0 {
		return fail("Trace.Interval", "must be positive")
	}
	if len(tr.RatesGbps) == 0 {
		return fail("Trace.RatesGbps", "must have at least one interval")
	}
	for _, rate := range tr.RatesGbps {
		if !finite(rate) {
			return fail("Trace.RatesGbps", "must contain only finite rates")
		}
		if rate < 0 {
			return fail("Trace.RatesGbps", "must not contain negative rates")
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Execute validates w and runs it, returning the family's result in the
// matching Result field. Results are byte-identical at any parallelism.
// Point and trace replay runs are memoized, so a repeat is served from
// the cache: Fig. 6 reruns Fig. 4's searches, and Table 5 revisits
// Fig. 4 and Table 4. No other family repeats a run within an
// invocation, so the others run directly; fleet.Run gives identical
// servers one simulation itself.
func (r *Runner) Execute(w Workload) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Kind: w.Kind}
	switch w.Kind {
	case WorkloadPoint:
		m := memo(r, runKey(w.Config, w.Platform, r.TBConfig, w.Opts), func() Measurement {
			return r.simulate(w.Config, w.Platform, w.Opts)
		})
		res.Point = &m
	case WorkloadReplay:
		t := memo(r, replayKey(w.Config, w.Platform, r.TBConfig, w.Trace, w.Seed), func() TraceReplayResult {
			return r.replayTrace(w.Config, w.Platform, w.Trace, w.Seed)
		})
		res.Replay = &t
	case WorkloadServer:
		key := serverKey(w.Config, w.Platform, r.TBConfig, w.Rates, int64(w.Interval), w.Seed, w.Group)
		s := r.replayServer(w.Config, w.Platform, w.Rates, w.Interval, w.Seed, key)
		res.Server = &s
	case WorkloadFaulted:
		f, err := r.runFaulted(*w.Scenario, w.Router, w.Trace, w.HostCores, w.Seed)
		if err != nil {
			return Result{}, err
		}
		res.Fault = &f
	case WorkloadBalanced:
		b := r.runBalanced(*w.Balancer, w.Trace, w.HostCores, w.Seed)
		res.Balanced = &b
	case WorkloadPipeline:
		p := r.simulatePipeline(w.Pipeline, w.Opts)
		res.Pipeline = &p
	case WorkloadSaturation:
		s := r.saturationSearch(w.Pipeline, w.Saturation)
		res.Saturation = &s
	case WorkloadOffload:
		o := r.runOffload(w.Offload)
		res.Offload = &o
	}
	return res, nil
}

// ParamError is the typed validation error for legacy config structs
// (LoadBalancer, FailoverPolicy) — the fault.Plan.Validate treatment.
type ParamError struct {
	Op     string
	Param  string
	Reason string
}

// Error implements error.
func (e *ParamError) Error() string {
	return fmt.Sprintf("core: %s: %s %s", e.Op, e.Param, e.Reason)
}
