package core

import (
	"fmt"
	"math"

	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file is the fleet-facing server replay: one datacenter server
// driven by the per-interval rate share a fleet dispatcher assigned to
// it. It mirrors replayTrace — same testbed wiring, same open-loop
// interval scheduler — but measures the whole trace (no warmup discard)
// and returns the raw latency histogram so package fleet can merge
// distributions and compute SLO attainment post-hoc at any target.
//
// The SLO target is deliberately NOT an input of the replay: attainment
// is a query against the histogram, so one replay answers every SLO.

// ServerReplay is the measured behaviour of one fleet server over its
// assigned rate series.
type ServerReplay struct {
	Platform    Platform
	OfferedGbps float64 // mean of the assigned rate series
	AvgTputGbps float64
	AvgPowerW   float64
	Util        float64 // pool utilization of the serving pool
	Dropped     uint64
	Sent        uint64
	Completed   uint64
	Latency     stats.Summary
	// Hist is the full latency distribution. fleet.Run shares it
	// between identical servers: treat it as read-only and Merge it into
	// a fresh histogram for fleet-level quantiles.
	Hist *stats.Histogram
}

// ReplayServer simulates one fleet server fed the given per-interval
// rates (Gb/s, one entry per trace interval of the given length). It is
// not memoized: fleet.Run gives identical servers — same class and rate
// row — one simulation, which is what makes a homogeneous 1000-server
// fleet under an even-split policy cost one simulation instead of a
// thousand.
func (r *Runner) ReplayServer(cfg *Config, plat Platform, rates []float64, interval sim.Duration, seed uint64, group string) ServerReplay {
	res, err := r.Execute(Workload{Kind: WorkloadServer, Config: cfg, Platform: plat,
		Rates: rates, Interval: interval, Seed: seed, Group: group})
	if err != nil {
		panic(err)
	}
	return *res.Server
}

// ReplayServerCeilingGbps bounds the AvgTputGbps of every ReplayServer
// of cfg on this runner's testbed over a series of the given number of
// intervals, each interval long, whatever its rates: the most payload
// the client→server link lets the replay's meter credit.
//
// The link serializes one ReqSize+EthernetOverhead-byte frame per
// ser = sim.DurationOf(frame, link rate) ns, the whole nanoseconds it
// computes itself, and a frame starts no earlier than the one before it
// ends, so the k-th request reaches the server no earlier than k·ser.
// The meter opens at 0 and closes at the last send, L ≥
// intervals·interval (the source's last interval ends no earlier). Up
// to L it credits at most L/ser completions; after L, record credits
// one only while the meter holds fewer than minWindowOps. So it credits
// at most max(L/ser, minWindowOps) requests of ReqSize bytes over at
// least L ns, and bits per ns are Gb/s. The bound is raised by 2^-50
// relative, which covers the meter's three float roundings and its own.
func (r *Runner) ReplayServerCeilingGbps(cfg *Config, intervals int, interval sim.Duration) float64 {
	ser := sim.DurationOf(cfg.ReqSize+nic.EthernetOverhead, r.TBConfig.LinkGbps()*1e9)
	window := sim.Duration(intervals) * interval
	if ser <= 0 || window <= 0 {
		return math.Inf(1)
	}
	bits := float64(cfg.ReqSize) * 8
	return math.Max(bits/float64(ser), minWindowOps*bits/float64(window)) * (1 + 0x1p-50)
}

// replayServer executes one fleet-server replay on a fresh testbed.
func (r *Runner) replayServer(cfg *Config, plat Platform, rates []float64, interval sim.Duration, seed uint64, key string) ServerReplay {
	tr := &trace.HyperscalerTrace{Interval: interval, RatesGbps: rates}
	label := fmt.Sprintf("fleet server %s @ %s | tr %s | seed %d",
		cfg.Name(), plat, traceFingerprint(tr), seed)
	ctx := r.newReplayCtx(cfg, plat, r.runSeed(seed), key, label)
	// Every completion counts: fleet attainment must see the whole
	// trace, so the meter opens at t=0 and warmup never triggers.
	ctx.meter = stats.NewMeter(0)
	ctx.warmupN = -1
	ctx.drive(rates, interval)
	r.finish(ctx)

	var offered float64
	for _, v := range rates {
		offered += v
	}
	if len(rates) > 0 {
		offered /= float64(len(rates))
	}
	tb := ctx.tb
	res := ServerReplay{
		Platform:    plat,
		OfferedGbps: offered,
		Dropped:     ctx.pool.Dropped(),
		Sent:        uint64(ctx.sent),
		Completed:   uint64(ctx.done),
		Latency:     ctx.hist.Summarize(),
		Hist:        ctx.hist,
	}
	ctx.meter.Close(ctx.lastSend)
	res.AvgTputGbps = ctx.meter.Gbps()
	switch plat {
	case SNICAccel:
		res.Util = tb.StagingPool.Utilization()
	case SNICCPU:
		res.Util = tb.SNICPool.Utilization()
	default:
		res.Util = tb.HostPool.Utilization()
	}
	res.AvgPowerW = float64(tb.Power.Server.Power())
	return res
}
