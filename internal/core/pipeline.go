package core

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/netstack"
	"repro/internal/sim"
)

// Multi-phase request pipelines. A PipelineSpec chains PhaseSpecs —
// host-core, SNIC-core and fixed-function-engine stages — into one
// served request, generalizing the one-function-per-run model: the tax
// pipelines of §2 (crypto-then-compress-then-send, NAT-then-inspect)
// become first-class workloads instead of separate figure rows. A
// FallbackPolicy decides, per engine phase, whether an overloaded
// accelerator sheds to a general-purpose core (the xmp_sched_sim
// CPU↔accelerator fallback structure) or lets the staging queue drop.
//
// A net-served point run is the single-phase pipeline PipelineFromConfig
// builds, stepped on the same phase path (see request.go); a pipeline
// run differs only in its phase chain and in emitting phase spans,
// phase ledgers and phase/ counters.

// PhaseResource names the kind of resource a phase occupies.
type PhaseResource string

// The three resource kinds a phase can bind to (Table 3's columns).
const (
	ResHostCore PhaseResource = "host-core"
	ResSNICCore PhaseResource = "snic-core"
	ResEngine   PhaseResource = "engine"
)

// PhaseSpec is one stage of a pipeline: a resource binding plus a
// service-time model in the same shape the legacy cost model uses, so a
// converted config is arithmetic-identical (float operation order
// matters for bit-reproducibility — see model.go).
type PhaseSpec struct {
	// Name labels the phase in spans, invariant ledgers and reports.
	Name string
	// Resource selects the pool or engine serving this phase.
	Resource PhaseResource

	// CPU cost model (host-core / snic-core phases): app cycles are
	// (BaseCycles + PerByteCycles·size) · CycleFactor + ExtraCycles,
	// evaluated in exactly that order. CycleFactor 0 means 1 (the host
	// path); the SNIC's slowdown is expressed as CycleFactor=SNICFactor.
	BaseCycles, PerByteCycles float64
	CycleFactor               float64
	ExtraCycles               float64
	// Sigma is the log-normal service jitter; 0 means the default 0.20.
	Sigma float64
	// Memory model for the phase's pool.
	MemIntensity float64
	WorkingSet   int64

	// Engine binding (engine phases).
	Engine  EngineKind
	PKAAlgo accel.PKAAlgo
	// Software fallback cost model used when the policy spills this
	// engine phase to a host core. Zero falls back to BaseCycles /
	// PerByteCycles.
	SpillBaseCycles, SpillPerByteCycles float64

	// OutScale rescales the payload leaving this phase (a compress
	// phase emits OutScale·input bytes for downstream phases). 0 and
	// values ≤ 0 mean 1 (no transform). The wire-level request size —
	// conservation ledger, meter accounting — is never rescaled.
	OutScale float64

	// QueueCap bounds the phase's pool queue; 0 means the runner
	// default (4096 jobs).
	QueueCap int
}

// isCPU reports whether the phase runs on a general-purpose core pool.
func (ph *PhaseSpec) isCPU() bool { return ph.Resource != ResEngine }

// queueCap is the phase's pool queue bound.
func (ph *PhaseSpec) queueCap() int {
	if ph.QueueCap > 0 {
		return ph.QueueCap
	}
	return 4096
}

// platform maps the phase's resource onto the legacy Platform axis
// (pool selection, memory model, power accounting).
func (ph *PhaseSpec) platform() Platform {
	switch ph.Resource {
	case ResHostCore:
		return HostCPU
	case ResSNICCore:
		return SNICCPU
	default:
		return SNICAccel
	}
}

// outSize applies the phase's payload transform.
func (ph *PhaseSpec) outSize(size int) int {
	if ph.OutScale <= 0 {
		return size
	}
	out := int(float64(size) * ph.OutScale)
	if out < 1 {
		out = 1
	}
	return out
}

// PipelineSpec is a whole multi-phase workload: the wire shape, the
// ordered phases, and the fallback policy arbitrating overloaded
// engines.
type PipelineSpec struct {
	Name  string
	Stack netstack.Kind
	// ReqSize/RespSize are wire payload bytes; Mixed swaps ReqSize for
	// the CTU-style bimodal distribution.
	ReqSize, RespSize int
	Mixed             bool

	Phases []PhaseSpec

	// Fallback arbitrates engine-phase overload; nil means DropWhenFull.
	Fallback FallbackPolicy

	// Cores per pool; zero means the testbed default.
	HostCores, SNICCores int

	// FixedExtra is a calibrated extra one-way fixed latency added to
	// the inbound stack delay (the legacy ExtraLatency residual).
	FixedExtra sim.Duration

	// KneeP99Mult is the saturation-search "reasonable p99" multiplier;
	// 0 means the default 3×.
	KneeP99Mult float64
}

// kneeMult mirrors Config.kneeMult for the saturation search.
func (ps *PipelineSpec) kneeMult() float64 {
	if ps.KneeP99Mult > 0 {
		return ps.KneeP99Mult
	}
	return 3.0
}

// uses reports whether any phase binds the given resource kind.
func (ps *PipelineSpec) uses(res PhaseResource) bool {
	for i := range ps.Phases {
		if ps.Phases[i].Resource == res {
			return true
		}
	}
	return false
}

// PipelineError is the typed validation error for pipeline specs.
type PipelineError struct {
	Pipeline string
	Phase    string // empty for spec-level problems
	Field    string
	Reason   string
}

// Error implements error.
func (e *PipelineError) Error() string {
	s := fmt.Sprintf("core: pipeline %q", e.Pipeline)
	if e.Phase != "" {
		s += fmt.Sprintf(" phase %q", e.Phase)
	}
	return fmt.Sprintf("%s: %s %s", s, e.Field, e.Reason)
}

// Validate rejects malformed pipelines with a typed *PipelineError:
// empty phase lists, unknown resources, negative cost-model inputs and
// engine phases without an engine binding all fail here rather than
// producing silent nonsense mid-run.
func (ps *PipelineSpec) Validate() error {
	fail := func(phase, field, reason string) error {
		return &PipelineError{Pipeline: ps.Name, Phase: phase, Field: field, Reason: reason}
	}
	if ps.Name == "" {
		return fail("", "Name", "must be set")
	}
	if len(ps.Phases) == 0 {
		return fail("", "Phases", "must have at least one phase")
	}
	if ps.ReqSize <= 0 && !ps.Mixed {
		return fail("", "ReqSize", "must be positive")
	}
	if ps.RespSize < 0 {
		return fail("", "RespSize", "must not be negative")
	}
	if ps.HostCores < 0 {
		return fail("", "HostCores", "must not be negative")
	}
	if ps.SNICCores < 0 {
		return fail("", "SNICCores", "must not be negative")
	}
	if ps.FixedExtra < 0 {
		return fail("", "FixedExtra", "must not be negative")
	}
	if ps.KneeP99Mult < 0 {
		return fail("", "KneeP99Mult", "must not be negative")
	}
	seen := make(map[string]bool, len(ps.Phases))
	for i := range ps.Phases {
		ph := &ps.Phases[i]
		if ph.Name == "" {
			return fail("", "Phases", fmt.Sprintf("phase %d has no name", i))
		}
		if seen[ph.Name] {
			return fail(ph.Name, "Name", "duplicates an earlier phase (per-phase ledgers need unique names)")
		}
		seen[ph.Name] = true
		switch ph.Resource {
		case ResHostCore, ResSNICCore:
			if ph.Engine != EngineNone {
				return fail(ph.Name, "Engine", "set on a CPU phase")
			}
		case ResEngine:
			if ph.Engine == EngineNone {
				return fail(ph.Name, "Engine", "engine phase needs an engine binding")
			}
		default:
			return fail(ph.Name, "Resource", fmt.Sprintf("unknown resource %q", ph.Resource))
		}
		if ph.BaseCycles < 0 || ph.PerByteCycles < 0 || ph.ExtraCycles < 0 ||
			ph.SpillBaseCycles < 0 || ph.SpillPerByteCycles < 0 {
			return fail(ph.Name, "cycles", "must not be negative")
		}
		if ph.CycleFactor < 0 {
			return fail(ph.Name, "CycleFactor", "must not be negative")
		}
		if ph.Sigma < 0 {
			return fail(ph.Name, "Sigma", "must not be negative")
		}
		if ph.MemIntensity < 0 || ph.MemIntensity > 1 {
			return fail(ph.Name, "MemIntensity", "must be in [0,1]")
		}
		if ph.WorkingSet < 0 {
			return fail(ph.Name, "WorkingSet", "must not be negative")
		}
		if ph.QueueCap < 0 {
			return fail(ph.Name, "QueueCap", "must not be negative")
		}
	}
	return nil
}

// policy returns the effective fallback policy.
func (ps *PipelineSpec) policy() FallbackPolicy {
	if ps.Fallback == nil {
		return DropWhenFull{}
	}
	return ps.Fallback
}

// key serializes every field the simulation reads, in fixed order, for
// the run key its telemetry run ID derives from (same contract as
// Config.cacheKey).
func (ps *PipelineSpec) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d/%d/%v|cores:%d/%d|fx:%d|knee:%g|pol:%s",
		ps.Name, ps.Stack, ps.ReqSize, ps.RespSize, ps.Mixed,
		ps.HostCores, ps.SNICCores, ps.FixedExtra, ps.KneeP99Mult, ps.policy().Key())
	for i := range ps.Phases {
		ph := &ps.Phases[i]
		fmt.Fprintf(&b, "|ph:%s/%s/cyc:%g,%g,%g,%g/sg:%g/mem:%g,%d/eng:%s,%s/sp:%g,%g/out:%g/cap:%d",
			ph.Name, ph.Resource, ph.BaseCycles, ph.PerByteCycles, ph.CycleFactor, ph.ExtraCycles,
			ph.Sigma, ph.MemIntensity, ph.WorkingSet, ph.Engine, ph.PKAAlgo,
			ph.SpillBaseCycles, ph.SpillPerByteCycles, ph.OutScale, ph.QueueCap)
	}
	return b.String()
}

// PipelineFromConfig converts one catalog entry on one platform into
// the equivalent single-phase pipeline: the phase point runs and
// replays of a net-served config step through. Executed through
// RunPipeline, it reproduces Runner.Run's measurement bit for bit (the
// conversion keeps the cost model's float evaluation order).
func PipelineFromConfig(cfg *Config, plat Platform) *PipelineSpec {
	if cfg.Mode != ModeNetServe {
		panic(fmt.Sprintf("core: PipelineFromConfig needs a net-served config, %s is %q", cfg.Name(), cfg.Mode))
	}
	return configPipeline(cfg, plat)
}

// configPipeline is PipelineFromConfig for a config of any mode: the
// analytic model prices a storage or switched config's cores with the
// same one phase.
func configPipeline(cfg *Config, plat Platform) *PipelineSpec {
	return &PipelineSpec{
		Name:        cfg.Name(),
		Stack:       cfg.Stack,
		ReqSize:     cfg.ReqSize,
		RespSize:    cfg.RespSize,
		Mixed:       cfg.Mixed,
		Phases:      []PhaseSpec{configPhase(cfg, plat)},
		HostCores:   cfg.HostCores,
		SNICCores:   cfg.SNICCores,
		FixedExtra:  cfg.ExtraLatency[plat],
		KneeP99Mult: cfg.KneeP99Mult,
	}
}

// configPhase is the one phase of cfg's pipeline on plat.
func configPhase(cfg *Config, plat Platform) PhaseSpec {
	ph := PhaseSpec{
		Name:          cfg.Function,
		BaseCycles:    cfg.HostBaseCycles,
		PerByteCycles: cfg.HostPerByteCycles,
		MemIntensity:  cfg.MemIntensity,
	}
	switch plat {
	case HostCPU:
		ph.Resource = ResHostCore
		ph.CycleFactor = 1
		ph.Sigma = cfg.HostSigma
		ph.WorkingSet = cfg.WorkingSetHost
		if cfg.Mixed {
			ph.ExtraCycles = cfg.MixedExtraCycles
		}
	case SNICCPU:
		ph.Resource = ResSNICCore
		ph.CycleFactor = cfg.SNICFactor
		ph.WorkingSet = cfg.WorkingSetSNIC
	case SNICAccel:
		ph.Resource = ResEngine
		// A switched config's upcalls run on the staging (Arm) cores.
		ph.CycleFactor = cfg.SNICFactor
		ph.Engine = cfg.Engine
		ph.PKAAlgo = cfg.PKAAlgo
		ph.WorkingSet = cfg.WorkingSetSNIC
		// Host software model if a policy ever spills this phase.
		ph.SpillBaseCycles = cfg.HostBaseCycles
		ph.SpillPerByteCycles = cfg.HostPerByteCycles
	default:
		panic(fmt.Sprintf("core: unknown platform %q", plat))
	}
	return ph
}

// ---- fallback policies ----

// FallbackPolicy arbitrates an engine phase's overload: given the
// accelerator path's backlog (staging queue + weighted engine queue, the
// load-balancer idiom) it decides whether the request spills to a host
// core running the phase's software model, or stays on the accelerator
// path and takes its chances with the staging queue. Implementations
// must be deterministic pure functions of their inputs; Key() feeds the
// run key and must uniquely encode the policy's parameters.
type FallbackPolicy interface {
	Key() string
	// Spill is consulted once per request per engine phase, before the
	// staging enqueue.
	Spill(phase *PhaseSpec, backlog, queueCap int) bool
}

// DropWhenFull is the legacy accelerator discipline: never spill; an
// overloaded staging queue sheds (drops count toward the conservation
// ledger). A single-engine-phase pipeline under DropWhenFull is the
// legacy SNICAccel run.
type DropWhenFull struct{}

// Key implements FallbackPolicy.
func (DropWhenFull) Key() string { return "drop" }

// Spill implements FallbackPolicy.
func (DropWhenFull) Spill(*PhaseSpec, int, int) bool { return false }

// SpillToHost falls back to a general-purpose host core once the
// accelerator path's backlog crosses the watermark — the xmp_sched_sim
// structure (and the S17 load balancer's spill rule, applied per
// request instead of per interval).
type SpillToHost struct {
	// Watermark is the backlog (staging jobs + 16× engine batches) at
	// which requests start spilling; 0 means the load balancer's
	// default threshold (96).
	Watermark int
}

// Key implements FallbackPolicy.
func (p SpillToHost) Key() string { return fmt.Sprintf("spill-host@%d", p.watermark()) }

func (p SpillToHost) watermark() int {
	if p.Watermark <= 0 {
		return DefaultLoadBalancer().SpillQueueThreshold
	}
	return p.Watermark
}

// Spill implements FallbackPolicy.
func (p SpillToHost) Spill(_ *PhaseSpec, backlog, _ int) bool {
	return backlog >= p.watermark()
}
