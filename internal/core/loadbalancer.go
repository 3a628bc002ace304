package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// LoadBalancer implements Strategy 3 of §5.3: split ingress packets
// between the SNIC accelerator and the host CPU based on monitored
// accelerator pressure, so that low-rate periods enjoy the SNIC's energy
// efficiency while bursts spill to the host before the SLO breaks.
//
// The paper's preliminary finding is also modelled: a *software* balancer
// on the SNIC CPU "consumes most of the SNIC CPU cycles simply to monitor
// packets at high rates and it cannot redirect packets fast enough".
// With HWAssist=false every packet pays a monitoring cost on the SNIC
// cores and redirection reacts at a coarse interval; with HWAssist=true
// (the paper's proposed future mechanism) monitoring is free and
// redirection is per-packet.
type LoadBalancer struct {
	// SpillQueueThreshold is the accelerator backlog (staged + queued
	// tasks) above which packets divert to the host.
	SpillQueueThreshold int
	// MonitorCycles is the per-packet SNIC CPU cost of the software
	// monitor (HWAssist=false only).
	MonitorCycles float64
	// HWAssist marks the hypothetical hardware balancer.
	HWAssist bool
	// ReactInterval is how often the software balancer refreshes its
	// view of accelerator pressure; the hardware one sees it instantly.
	ReactInterval sim.Duration
}

// DefaultLoadBalancer returns the software balancer the paper prototyped.
func DefaultLoadBalancer() LoadBalancer {
	return LoadBalancer{
		SpillQueueThreshold: 96,
		MonitorCycles:       420,
		HWAssist:            false,
		ReactInterval:       100 * sim.Microsecond,
	}
}

// HWLoadBalancer returns the proposed hardware-assisted balancer.
func HWLoadBalancer() LoadBalancer {
	return LoadBalancer{SpillQueueThreshold: 96, HWAssist: true}
}

// BalancedResult reports a balanced trace replay.
type BalancedResult struct {
	Balancer    LoadBalancer
	AvgTputGbps float64
	P99         sim.Duration
	AvgPowerW   float64
	// HostShare is the fraction of packets served by the host CPU.
	HostShare float64
	// SNICCPUUtil shows the monitoring burden on the SNIC cores.
	SNICCPUUtil float64
	// Dropped counts requests shed at a full queue or still unresolved
	// at the run's horizon.
	Dropped uint64
}

func (b BalancedResult) String() string {
	return fmt.Sprintf("balanced(hw=%v): %.2f Gb/s, p99 %v, %.1f W, host share %.1f%%, snic util %.2f",
		b.Balancer.HWAssist, b.AvgTputGbps, b.P99, b.AvgPowerW, b.HostShare*100, b.SNICCPUUtil)
}

// Validate rejects malformed balancer parameters with a typed
// *ParamError (the fault.Plan.Validate treatment): negative thresholds,
// monitor costs or reaction intervals would silently disable the spill
// logic or wedge the refresh loop.
func (lb LoadBalancer) Validate() error {
	fail := func(param, reason string) error {
		return &ParamError{Op: "load balancer", Param: param, Reason: reason}
	}
	if lb.SpillQueueThreshold < 0 {
		return fail("SpillQueueThreshold", "must not be negative")
	}
	if lb.MonitorCycles < 0 {
		return fail("MonitorCycles", "must not be negative")
	}
	if lb.ReactInterval < 0 {
		return fail("ReactInterval", "must not be negative")
	}
	if !lb.HWAssist && lb.ReactInterval == 0 {
		return fail("ReactInterval", "must be positive for the software balancer")
	}
	return nil
}

// runBalanced replays tr through the balancer on the routed request
// path (routed.go): packets steer to the SNIC accelerator until its
// backlog crosses the threshold, then spill to the host CPU pool.
func (r *Runner) runBalanced(lb LoadBalancer, tr *trace.HyperscalerTrace, hostCores int, seed uint64) BalancedResult {
	key := fmt.Sprintf("balanced|tb:%+v|cores:%d|lb:%+v|tr:%s|seed:%d",
		r.TBConfig, hostCores, lb, traceFingerprint(tr), seed)
	label := fmt.Sprintf("balanced hw=%v spill=%d | cores %d | seed %d",
		lb.HWAssist, lb.SpillQueueThreshold, hostCores, seed)
	ctx := r.newRoutedCtx(&HealthRouter{LB: lb}, hostCores, seed, key, label)
	ctx.meter = stats.NewMeter(0)
	// A horizon of the trace span plus a generous drain.
	horizon := sim.Time(tr.Duration()) + sim.Time(200*sim.Millisecond)
	r.runRouted(ctx, tr, horizon, false, label)
	r.finishChecks(ctx)
	r.finishRecorder(ctx)

	tb := ctx.tb
	res := BalancedResult{Balancer: lb, P99: ctx.hist.P99(), Dropped: ctx.dropped}
	if ctx.sent > 0 {
		res.HostShare = float64(ctx.hostServed) / float64(ctx.sent)
	}
	tb.SetHostTrafficShare(res.HostShare)
	tb.SetEngineUtil(tb.REM.Utilization())
	ctx.meter.Close(ctx.lastSend)
	res.AvgTputGbps = ctx.meter.Gbps()
	res.AvgPowerW = float64(tb.Power.Server.Power())
	res.SNICCPUUtil = tb.StagingPool.Utilization()
	return res
}

// BurstyTrace builds a short trace that mostly idles at a low rate with
// bursts exceeding the accelerator's ~50 Gb/s capability — the workload
// where a balancer matters.
func BurstyTrace(baseGbps, burstGbps float64, points int, burstEvery int, interval sim.Duration) *trace.HyperscalerTrace {
	rates := make([]float64, points)
	for i := range rates {
		if burstEvery > 0 && i%burstEvery == burstEvery-1 {
			rates[i] = burstGbps
		} else {
			rates[i] = baseGbps
		}
	}
	return &trace.HyperscalerTrace{Interval: interval, RatesGbps: rates}
}
