package snic

import (
	"io"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/report"
	"repro/internal/trace"
)

// Adaptive flow offload: a bounded eSwitch flow table, an online
// threshold controller, and the churn scenario family that compares
// them. The first packet of every flow takes the SNIC-core slow path;
// once a flow earns a rule (K slow-path packets under the active
// policy) its packets match in the eSwitch and skip the cores entirely.
// The policies differ only in how K is chosen: fixed at 1 (the
// per-function advisor's behavior), fixed at a hand-tuned value, or
// moved online from the table's own churn counters.

// Offload types.
type (
	// OffloadSpec is the full offload scenario: trace, flow mix, table
	// sizing, policy and slow-path cost model.
	OffloadSpec = core.OffloadSpec
	// OffloadPolicy is a tagged union selecting the threshold policy.
	OffloadPolicy = core.OffloadPolicy
	// OffloadPolicyKind names a threshold policy family.
	OffloadPolicyKind = core.OffloadPolicyKind
	// OffloadResult is one policy's measured outcome on the scenario.
	OffloadResult = core.OffloadResult
	// FlowMix parameterizes the elephant/mice flow decomposition.
	FlowMix = trace.FlowMix
	// FlowTableConfig sizes the eSwitch flow table and its slow path.
	FlowTableConfig = flow.TableConfig
	// FlowEvictPolicy names the table's victim-selection discipline.
	FlowEvictPolicy = flow.EvictPolicy
	// AdaptiveConfig tunes the online threshold controller.
	AdaptiveConfig = flow.AdaptiveConfig
)

// The threshold policy families.
const (
	// OffloadStaticFunction offloads every flow from its first packet.
	OffloadStaticFunction = core.OffloadStaticFunction
	// OffloadStaticFlow offloads a flow after a fixed K slow-path packets.
	OffloadStaticFlow = core.OffloadStaticFlow
	// OffloadAdaptive moves K online from the table's churn counters.
	OffloadAdaptive = core.OffloadAdaptive
)

// The flow-table eviction disciplines.
const (
	FlowEvictLRU      = flow.EvictLRU
	FlowEvictIdle     = flow.EvictIdle
	FlowEvictPriority = flow.EvictPriority
)

// DefaultOffloadSpec returns the churny offload scenario the -exp
// offload experiment runs: a bursty trace over an elephant/mice flow
// population with forced flow restarts, against the default 512-rule
// table.
func DefaultOffloadSpec() OffloadSpec { return core.DefaultOffloadSpec() }

// DefaultOffloadPolicies returns the three compared policies:
// static-per-function, static-per-flow-threshold, and adaptive.
func DefaultOffloadPolicies() []OffloadPolicy { return core.DefaultOffloadPolicies() }

// DefaultAdaptiveConfig returns the adaptive controller's tuning.
func DefaultAdaptiveConfig() AdaptiveConfig { return flow.DefaultAdaptiveConfig() }

// DefaultFlowMix returns the elephant/mice flow decomposition used by
// the offload scenario.
func DefaultFlowMix() FlowMix { return trace.DefaultFlowMix() }

// ChurnTrace returns the bursty rate trace the offload scenario replays.
func ChurnTrace() *trace.HyperscalerTrace { return core.ChurnTrace() }

// RunOffload measures one offload policy on one scenario.
func (t *Testbed) RunOffload(spec OffloadSpec) OffloadResult {
	return t.runner.RunOffload(spec)
}

// OffloadExperiment measures each policy on the same scenario —
// byte-identical at any parallelism.
func (t *Testbed) OffloadExperiment(spec OffloadSpec, policies []OffloadPolicy) []OffloadResult {
	return t.runner.OffloadExperiment(spec, policies)
}

// RenderOffload writes the offload policy comparison tables.
func RenderOffload(w io.Writer, rs []OffloadResult) { report.Offload(w, rs) }
