package core

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/netstack"
	"repro/internal/power"
	"repro/internal/sim"
)

// Advisor implements Strategy 2 of §5.3: "more intelligent policies to
// determine functions to offload to the SNIC processor", in the spirit of
// Clara [63] — predict a function's performance on each platform from its
// configuration (inputs, batch sizes, operation types) *without* running
// it, then recommend the platform that meets the SLO at the best
// efficiency.
//
// The predictor is the analytic service model (model.go) that the
// request path draws its service times from and the runner's search is
// seeded from, which makes it fast (microseconds per query) and lets
// tests quantify its agreement with full simulation.
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

// Efficiency is the prediction's server-level efficiency: throughput
// over the server's idle draw plus the active delta (see Advise).
func (p Prediction) Efficiency() float64 {
	return p.TputGbps / (float64(power.ServerIdleW) + p.ActivePowerW)
}

// Predict estimates a platform's behaviour for the config from the
// analytic service model (model.go).
func (a *Advisor) Predict(cfg *Config, plat Platform) Prediction {
	tbc := a.runner.TBConfig
	tb := NewTestbed(tbc.withCores(cfg.HostCores, cfg.SNICCores))
	return Prediction{
		Platform:     plat,
		TputGbps:     configGbps(tb, tbc.LinkGbps(), cfg, plat),
		P99:          predictP99(tb, cfg, plat),
		ActivePowerW: activePower(tb, cfg, plat),
	}
}

// predictP99 composes the fixed latency path with a moderate queueing
// allowance (~2 services at 70% load) — deliberately simple, as Clara's
// models are, and validated against simulation in the tests.
func predictP99(tb *Testbed, cfg *Config, plat Platform) sim.Duration {
	if plat == SNICAccel {
		// Staging + batch wait + engine service + return.
		engineBits, batchWait := 30e9, 10*sim.Microsecond // no engine bound (OvS)
		switch cfg.Engine {
		case EngineREM:
			engineBits, batchWait = tb.REM.RateBits, accel.REMMaxWait
		case EngineDeflate:
			engineBits, batchWait = tb.Deflate.RateBits, accel.DeflateMaxWait
		case EnginePKABulk:
			engineBits, batchWait = tb.PKA.BulkRateBits[cfg.PKAAlgo], 2*sim.Microsecond
		case EnginePKAOp:
			return sim.Duration(2.2 * float64(sim.Second) / tb.PKA.OpRate[cfg.PKAAlgo])
		}
		opBytes := meanReq(cfg.ReqSize, cfg.Mixed)
		if cfg.Mode == ModeLocal {
			opBytes = cfg.LocalOpBytes
		}
		return batchWait + 3*sim.DurationOf(opBytes, engineBits) + 2*sim.Microsecond
	}
	prof := netstack.ByKind(cfg.Stack)
	var svc sim.Duration
	if cfg.HostRateOps > 0 || cfg.HostRateBits > 0 {
		svc = localOpTime(tb, cfg, plat, cfg.LocalOpBytes)
	} else {
		svc = phaseTime(tb, &prof, configPipeline(cfg, plat), 0, meanReq(cfg.ReqSize, cfg.Mixed), false)
	}
	// Fixed path both ways at p99-ish quantile plus a 2-service queue.
	fixed := prof.FixedMedian(tb.SpecFor(plat).Arch)
	return 2*sim.Duration(float64(fixed)*2.2) + 3*svc
}

// activePower is the active power delta of serving on plat with tb's
// cores, from power's anchor decomposition, whose CPU watts are for
// eight cores: host platforms light up the package and the io-traffic
// path; SNIC platforms only the card's envelope, of which an
// accelerator run uses the engines and its staging cores.
func activePower(tb *Testbed, cfg *Config, plat Platform) float64 {
	switch plat {
	case HostCPU:
		cpuW := float64(power.HostCPUActiveW) * float64(tb.HostPool.Cores()) / 8.0
		if cfg.Stack != netstack.KindDPDK {
			cpuW *= 0.9 // interrupt-driven stacks idle between packets
		}
		return cpuW + float64(power.HostIOActiveW)
	case SNICCPU:
		return float64(power.SNICArmActiveW)
	case SNICAccel:
		staging := float64(tb.StagingPool.Cores()) / 8
		return float64(power.SNICArmActiveW)*staging + float64(power.SNICEngineActiveW)
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
	// Rank by server-level efficiency.
	sort.Slice(ok, func(i, j int) bool {
		return ok[i].Efficiency() > ok[j].Efficiency()
	})
	best := ok[0]
	rec.Chosen = best.Platform
	rec.Reason = fmt.Sprintf("predicted %.2f Gb/s at p99 %v for %.1f W active",
		best.TputGbps, best.P99, best.ActivePowerW)
	return rec
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
