package core

import (
	"fmt"
	"sort"

	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Advisor implements Strategy 2 of §5.3: "more intelligent policies to
// determine functions to offload to the SNIC processor", in the spirit of
// Clara [63] — predict a function's performance on each platform from its
// configuration (inputs, batch sizes, operation types) *without* running
// it, then recommend the platform that meets the SLO at the best
// efficiency.
//
// The predictor is the same analytic capacity/latency model the runner's
// search is seeded from, which makes it fast (microseconds per query) and
// lets tests quantify its agreement with full simulation.
type Advisor struct {
	runner *Runner
}

// NewAdvisor returns an advisor over the default testbed.
func NewAdvisor() *Advisor { return &Advisor{runner: NewRunner()} }

// NewAdvisorWith returns an advisor sharing the given runner's testbed
// sizing, parallelism and progress callback.
func NewAdvisorWith(r *Runner) *Advisor { return &Advisor{runner: r} }

// Prediction is the advisor's estimate for one platform.
type Prediction struct {
	Platform Platform
	// TputGbps is the predicted maximum sustainable throughput.
	TputGbps float64
	// P99 is the predicted tail latency at a moderate (70%) operating
	// point — the regime a deployed SLO-bound service runs in.
	P99 sim.Duration
	// ActivePowerW is the predicted active power delta of serving on
	// this platform.
	ActivePowerW float64
}

// Recommendation is the advisor's answer.
type Recommendation struct {
	Config      *Config
	SLOP99      sim.Duration
	Predictions []Prediction
	// Chosen is the recommended platform, or empty if nothing meets the
	// SLO (the caller must scale out instead).
	Chosen Platform
	Reason string
}

func (r Recommendation) String() string {
	return fmt.Sprintf("%s (SLO %v): %s — %s", r.Config.Name(), r.SLOP99, r.Chosen, r.Reason)
}

// Predict estimates a platform's behaviour for the config.
func (a *Advisor) Predict(cfg *Config, plat Platform) Prediction {
	p := Prediction{Platform: plat}
	p.TputGbps = a.runner.estimateCapacityGbps(cfg, plat)
	p.P99 = a.predictP99(cfg, plat)
	p.ActivePowerW = a.predictActivePower(cfg, plat)
	return p
}

// predictP99 composes the fixed latency path with a moderate queueing
// allowance (~2 services at 70% load) — deliberately simple, as Clara's
// models are, and validated against simulation in the tests.
func (a *Advisor) predictP99(cfg *Config, plat Platform) sim.Duration {
	prof := netstack.ByKind(cfg.Stack)
	tb := NewTestbed(a.runner.TBConfig)
	size := cfg.ReqSize
	if cfg.Mixed {
		size = int(trace.CTUMixed().Mean())
	}

	if plat == SNICAccel {
		// Staging + batch wait + engine service + return.
		var engineBits float64
		var batchWait sim.Duration
		switch cfg.Engine {
		case EngineREM:
			engineBits = tb.REM.RateBits
			batchWait = 11 * sim.Microsecond
		case EngineDeflate:
			engineBits = tb.Deflate.RateBits
			batchWait = 20 * sim.Microsecond
		case EnginePKABulk:
			engineBits = tb.PKA.BulkRateBits[cfg.PKAAlgo]
			batchWait = 2 * sim.Microsecond
		case EnginePKAOp:
			return sim.Duration(2.2 * float64(sim.Second) / tb.PKA.OpRate[cfg.PKAAlgo])
		default:
			engineBits = 30e9
			batchWait = 10 * sim.Microsecond
		}
		opBytes := size
		if cfg.Mode == ModeLocal {
			opBytes = cfg.LocalOpBytes
		}
		svc := sim.DurationOf(opBytes, engineBits)
		return batchWait + 3*svc + 2*sim.Microsecond
	}

	spec := tb.SpecFor(plat)
	app := cfg.HostBaseCycles + cfg.HostPerByteCycles*float64(size)
	if plat != HostCPU {
		app *= cfg.SNICFactor
	}
	var svc sim.Duration
	switch {
	case cfg.HostRateOps > 0:
		svc = sim.Duration(float64(sim.Second) / cfg.HostRateOps)
	case cfg.HostRateBits > 0:
		svc = sim.DurationOf(cfg.LocalOpBytes, cfg.HostRateBits)
	default:
		cycles := prof.RxCycles(spec.Arch, size) + prof.TxCycles(spec.Arch, cfg.RespSize) + app
		ws := cfg.WorkingSetHost
		if plat != HostCPU {
			ws = cfg.WorkingSetSNIC
		}
		pen := tb.MemFor(plat).Penalty(cfg.MemIntensity, ws, spec.L3Bytes)
		svc = sim.Duration(float64(sim.Cycles(cycles/spec.IPC, spec.BaseHz)) * pen)
	}
	if plat != HostCPU && (cfg.HostRateBits > 0 || cfg.HostRateOps > 0) {
		host := tb.HostSpec
		gap := (host.BaseHz * host.IPC) / (spec.BaseHz * spec.IPC)
		svc = sim.Duration(float64(svc) * gap * cfg.SNICFactor)
	}
	// Fixed path both ways at p99-ish quantile plus a 2-service queue.
	fixed := prof.FixedOneWay
	if plat != HostCPU && prof.ArmFixedMult > 0 {
		fixed = sim.Duration(float64(fixed) * prof.ArmFixedMult)
	}
	return 2*sim.Duration(float64(fixed)*2.2) + 3*svc
}

// predictActivePower uses the calibrated power budget: host platforms
// light up the package and the io-traffic path; SNIC platforms only the
// card's 5.4 W envelope.
func (a *Advisor) predictActivePower(cfg *Config, plat Platform) float64 {
	switch plat {
	case HostCPU:
		cores := cfg.HostCores
		if cores == 0 {
			cores = a.runner.TBConfig.HostCores
		}
		cpuW := 105.0 * float64(cores) / 8.0
		if cfg.Stack != netstack.KindDPDK {
			cpuW *= 0.9 // interrupt-driven stacks idle between packets
		}
		return cpuW + 10
	case SNICCPU:
		return 3.4
	case SNICAccel:
		return 3.4*0.25 + 2.0 // two staging cores + engine
	default:
		panic(fmt.Sprintf("core: unknown platform %q", plat))
	}
}

// Advise recommends the most energy-efficient platform that meets the
// p99 SLO. Efficiency is ranked at the SERVER level — throughput over
// idle-plus-active power — because the paper's Key Observation 5 is
// precisely that the 252 W idle floor dominates: a platform that is
// frugal per active watt but slow per server usually loses.
func (a *Advisor) Advise(cfg *Config, sloP99 sim.Duration) Recommendation {
	rec := Recommendation{Config: cfg, SLOP99: sloP99}
	for _, plat := range cfg.Platforms {
		rec.Predictions = append(rec.Predictions, a.Predict(cfg, plat))
	}
	// Filter by SLO.
	var ok []Prediction
	for _, p := range rec.Predictions {
		if sloP99 <= 0 || p.P99 <= sloP99 {
			ok = append(ok, p)
		}
	}
	if len(ok) == 0 {
		rec.Chosen = ""
		rec.Reason = "no platform meets the SLO; scale out on the host instead"
		return rec
	}
	// Rank by throughput per active watt.
	sort.Slice(ok, func(i, j int) bool {
		return effScore(ok[i]) > effScore(ok[j])
	})
	best := ok[0]
	rec.Chosen = best.Platform
	rec.Reason = fmt.Sprintf("predicted %.2f Gb/s at p99 %v for %.1f W active",
		best.TputGbps, best.P99, best.ActivePowerW)
	return rec
}

func effScore(p Prediction) float64 {
	const idleW = 252
	return p.TputGbps / (idleW + p.ActivePowerW)
}

// AdviseAll runs the advisor over the whole catalog at a common SLO.
// Recommendations compute concurrently up to the runner's parallelism
// and merge in catalog order.
func (a *Advisor) AdviseAll(sloP99 sim.Duration) []Recommendation {
	cat := Catalog()
	out := make([]Recommendation, len(cat))
	prog := a.runner.newProgress(len(cat))
	a.runner.forEachN(len(cat), func(i int) {
		out[i] = a.Advise(cat[i], sloP99)
		prog.step("advise " + cat[i].Name())
	})
	return out
}
