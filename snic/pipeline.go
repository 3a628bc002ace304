package snic

import (
	"io"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/netstack"
	"repro/internal/report"
)

// Multi-phase pipelines and the unified Workload API. A request can
// traverse several phases — host cores, SNIC cores, fixed-function
// engines — with a fallback policy deciding what happens when an
// accelerator's queue fills. Workload puts every run family behind
// one validated Execute call.

// Workload is the unified run spec; Execute dispatches on its Kind.
type Workload = core.Workload

// WorkloadKind selects a run family.
type WorkloadKind = core.WorkloadKind

// The run families Execute dispatches between.
const (
	WorkloadPoint      = core.WorkloadPoint
	WorkloadReplay     = core.WorkloadReplay
	WorkloadServer     = core.WorkloadServer
	WorkloadFaulted    = core.WorkloadFaulted
	WorkloadBalanced   = core.WorkloadBalanced
	WorkloadPipeline   = core.WorkloadPipeline
	WorkloadSaturation = core.WorkloadSaturation
)

// Result is Execute's tagged union: the field matching Kind is set.
type Result = core.Result

// Pipeline types.
type (
	// PipelineSpec chains PhaseSpecs into one served request.
	PipelineSpec = core.PipelineSpec
	// PhaseSpec is one stage: a resource binding plus a cost model.
	PhaseSpec = core.PhaseSpec
	// PhaseResource names the resource kind a phase occupies.
	PhaseResource = core.PhaseResource
	// PipelineMeasurement is one pipeline operating point.
	PipelineMeasurement = core.PipelineMeasurement
	// PhaseStat is one phase's served/spilled/dropped accounting.
	PhaseStat = core.PhaseStat
	// SaturationOpts shapes a saturation-search load walk.
	SaturationOpts = core.SaturationOpts
	// SaturationResult is one policy's load walk with its knee.
	SaturationResult = core.SaturationResult
	// SaturationPoint is one sampled operating point.
	SaturationPoint = core.SaturationPoint
	// FallbackPolicy arbitrates engine-phase overload.
	FallbackPolicy = core.FallbackPolicy
	// DropWhenFull never spills (the legacy accelerator discipline).
	DropWhenFull = core.DropWhenFull
	// SpillToHost sheds to a host core past a backlog watermark.
	SpillToHost = core.SpillToHost
	// EngineKind names a fixed-function engine.
	EngineKind = core.EngineKind
)

// The three resource kinds a phase can bind.
const (
	ResHostCore = core.ResHostCore
	ResSNICCore = core.ResSNICCore
	ResEngine   = core.ResEngine
)

// The fixed-function engines.
const (
	EngineREM     = core.EngineREM
	EngineDeflate = core.EngineDeflate
	EnginePKABulk = core.EnginePKABulk
	EnginePKAOp   = core.EnginePKAOp
)

// PhaseOption configures one phase of a pipeline under construction.
type PhaseOption func(*PhaseSpec)

// WithCycles sets the phase's CPU cost model: app cycles are
// base + perByte·size (scaled by any cycle factor).
func WithCycles(base, perByte float64) PhaseOption {
	return func(ph *PhaseSpec) { ph.BaseCycles, ph.PerByteCycles = base, perByte }
}

// WithCycleFactor scales the phase's app cycles (the SNIC-core slowdown
// axis; 1 is the host cost).
func WithCycleFactor(f float64) PhaseOption {
	return func(ph *PhaseSpec) { ph.CycleFactor = f }
}

// WithExtraCycles adds a flat cycle cost after scaling (the Mixed-trace
// verification surcharge slot).
func WithExtraCycles(c float64) PhaseOption {
	return func(ph *PhaseSpec) { ph.ExtraCycles = c }
}

// WithSigma sets the phase's log-normal service jitter (default 0.20).
func WithSigma(sigma float64) PhaseOption {
	return func(ph *PhaseSpec) { ph.Sigma = sigma }
}

// WithMemory sets the phase's DRAM pressure: intensity in [0,1] and the
// working-set footprint in bytes.
func WithMemory(intensity float64, workingSet int64) PhaseOption {
	return func(ph *PhaseSpec) { ph.MemIntensity, ph.WorkingSet = intensity, workingSet }
}

// WithEngine binds an engine phase to a fixed-function unit (algo is
// meaningful for the PKA kinds only).
func WithEngine(kind EngineKind, algo accel.PKAAlgo) PhaseOption {
	return func(ph *PhaseSpec) { ph.Engine, ph.PKAAlgo = kind, algo }
}

// WithSpillModel sets the host software cost model used when a fallback
// policy spills this engine phase to a general-purpose core.
func WithSpillModel(base, perByte float64) PhaseOption {
	return func(ph *PhaseSpec) { ph.SpillBaseCycles, ph.SpillPerByteCycles = base, perByte }
}

// WithOutScale rescales the payload leaving the phase (compression).
func WithOutScale(s float64) PhaseOption {
	return func(ph *PhaseSpec) { ph.OutScale = s }
}

// WithQueueCap bounds the phase's pool queue (default 4096).
func WithQueueCap(n int) PhaseOption {
	return func(ph *PhaseSpec) { ph.QueueCap = n }
}

// NewPhase builds one pipeline phase.
func NewPhase(name string, res PhaseResource, opts ...PhaseOption) PhaseSpec {
	ph := PhaseSpec{Name: name, Resource: res}
	for _, opt := range opts {
		opt(&ph)
	}
	return ph
}

// WithPipeline wraps a pipeline spec and operating point in a Workload
// for Execute:
//
//	res, err := tb.Execute(snic.WithPipeline(ps, 20, 10_000))
//	fmt.Println(res.Pipeline.Point.TputGbps)
func WithPipeline(ps *PipelineSpec, offeredGbps float64, requests int) Workload {
	w := Workload{Kind: WorkloadPipeline, Pipeline: ps}
	w.Opts = core.DefaultRunOpts()
	if requests > 0 {
		w.Opts.Requests = requests
	}
	w.Opts.OfferedGbps = offeredGbps
	return w
}

// Execute validates and runs any workload kind — the unified API the
// per-family helpers adapt to. Byte-identical to the legacy entry
// points at any parallelism.
func (t *Testbed) Execute(w Workload) (Result, error) { return t.runner.Execute(w) }

// RunPipeline measures one pipeline at a fixed operating point.
func (t *Testbed) RunPipeline(ps *PipelineSpec, offeredGbps float64, requests int) PipelineMeasurement {
	opts := core.DefaultRunOpts()
	if requests > 0 {
		opts.Requests = requests
	}
	opts.OfferedGbps = offeredGbps
	return t.runner.RunPipeline(ps, opts)
}

// SaturationSearch walks a pipeline's offered load to the SLO knee
// under its fallback policy (run_until_saturation).
func (t *Testbed) SaturationSearch(ps *PipelineSpec, so SaturationOpts) SaturationResult {
	return t.runner.SaturationSearch(ps, so)
}

// PipelineFromBenchmark converts a net-served catalog entry on one
// platform into the equivalent single-phase pipeline; its measurement
// is bit-identical to the legacy Run.
func PipelineFromBenchmark(b *Benchmark, p Platform) *PipelineSpec {
	return core.PipelineFromConfig(b, p)
}

// CryptoCompressSendPipeline returns the egress tax chain exemplar:
// AES on the PKA engine → Deflate engine → send on a SNIC core.
func CryptoCompressSendPipeline() *PipelineSpec { return core.CryptoCompressSendPipeline() }

// NATIDSPipeline returns the ingress tax chain exemplar: NAT lookup on
// a host core → rule matching on the REM engine.
func NATIDSPipeline() *PipelineSpec { return core.NATIDSPipeline() }

// Stack kinds for PipelineSpec.Stack.
const (
	StackTCP  = netstack.KindTCP
	StackUDP  = netstack.KindUDP
	StackDPDK = netstack.KindDPDK
	StackRDMA = netstack.KindRDMA
)

// RenderPipeline writes the pipeline measurement table.
func RenderPipeline(w io.Writer, ms []PipelineMeasurement) { report.Pipeline(w, ms) }

// RenderSaturation writes the saturation curves and knees.
func RenderSaturation(w io.Writer, rs []SaturationResult) { report.Saturation(w, rs) }
