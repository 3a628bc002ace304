package snic

import (
	"io"

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
