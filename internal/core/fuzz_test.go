package core

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/sim"
)

// FuzzCheckedRun is the config fuzzer: arbitrary (catalog entry,
// platform, offered rate, seed) tuples run end to end under checked
// execution. It asserts no behaviour at all beyond the physical laws —
// the checker panics on any conservation, causality, clock or queue
// violation, and Finish panics if the run drains with requests
// unaccounted. Everything else (throughput, tails, power) is free to
// vary with the inputs.
func FuzzCheckedRun(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(10), uint64(1))
	f.Add(uint8(7), uint8(1), uint16(300), uint64(99))
	f.Add(uint8(255), uint8(2), uint16(0), uint64(12345))

	f.Fuzz(func(t *testing.T, ci, pi uint8, rate uint16, seed uint64) {
		catalog := Catalog()
		cfg := catalog[int(ci)%len(catalog)]
		plat := cfg.Platforms[int(pi)%len(cfg.Platforms)]
		r := NewRunner()
		r.Checks = true
		opts := RunOpts{
			Requests:   300,
			WarmupFrac: 0.1,
			Seed:       seed,
			// 0.05 .. ~4.1 Gb/s: spans idle through deep overload.
			OfferedGbps: 0.05 + float64(rate%410)/100,
		}
		m := r.Run(cfg, plat, opts)
		if m.TputGbps < 0 || m.ServerPowerW < 0 {
			t.Fatalf("negative measurement: %+v", m)
		}
		// Closed-loop modes ignore the offered rate, so the delivered
		// fraction is meaningful (≈ bounded by 1) only for open-loop
		// runs; window edge effects can push it a hair over.
		if m.DeliveredFrac < 0 {
			t.Fatalf("negative delivered fraction %v", m.DeliveredFrac)
		}
		if cfg.Closed == 0 && cfg.Mode == ModeNetServe && m.DeliveredFrac > 1.5 {
			t.Fatalf("open-loop delivered fraction %v implausible", m.DeliveredFrac)
		}
	})
}

// FuzzPipelineRun is the pipeline fuzzer: arbitrary (exemplar, policy,
// queue cap, offered rate, seed) tuples run under checked execution.
// Like FuzzCheckedRun it asserts invariants only — the whole-run and
// per-phase conservation ledgers, causality and queue sanity validate
// online and panic on violation — plus tally coherence: every injected
// request must be accounted for phase by phase.
func FuzzPipelineRun(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(50), uint64(1))
	f.Add(uint8(1), uint8(3), uint16(600), uint64(99))
	f.Add(uint8(2), uint8(250), uint16(0), uint64(12345))

	f.Fuzz(func(t *testing.T, pi, qc uint8, rate uint16, seed uint64) {
		specs := []*PipelineSpec{CryptoCompressSendPipeline(), NATIDSPipeline()}
		ps := specs[int(pi)%len(specs)]
		if pi%2 == 1 {
			ps.Fallback = SpillToHost{Watermark: int(qc)%32 + 1}
		}
		if qc > 0 {
			for i := range ps.Phases {
				ps.Phases[i].QueueCap = int(qc)
			}
		}
		r := NewRunner()
		r.Checks = true
		opts := RunOpts{
			Requests:   250,
			WarmupFrac: 0.1,
			Seed:       seed,
			// 0.05 .. ~80 Gb/s: idle through deep overload.
			OfferedGbps: 0.05 + float64(rate%800)/10,
		}
		pm := r.RunPipeline(ps, opts)
		if pm.Point.TputGbps < 0 || pm.Point.ServerPowerW < 0 || pm.Point.DeliveredFrac < 0 {
			t.Fatalf("negative measurement: %+v", pm.Point)
		}
		upstream := uint64(opts.Requests)
		for _, ph := range pm.Phases {
			if n := ph.Served + ph.Spilled + ph.Dropped; n != upstream {
				t.Fatalf("phase %q accounts for %d of %d upstream requests (%+v)",
					ph.Name, n, upstream, pm.Phases)
			}
			upstream = ph.Served + ph.Spilled
		}
	})
}

// FuzzOffloadRun is the flow-offload fuzzer: arbitrary (policy, eviction
// discipline, table capacity, churn rate, threshold, seed) tuples run
// the churn scenario end to end under checked execution. The flow
// invariants validate online — every packet must leave through exactly
// one datapath, the request ledger must balance, and table occupancy may
// never exceed capacity — and panic on violation. Absolute SLO or drop
// numbers are free to vary with the inputs.
func FuzzOffloadRun(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(64), uint16(30), uint8(4), uint64(1))
	f.Add(uint8(1), uint8(1), uint16(8), uint16(200), uint8(1), uint64(99))
	f.Add(uint8(2), uint8(2), uint16(0), uint16(0), uint8(255), uint64(12345))

	f.Fuzz(func(t *testing.T, pi, ev uint8, tcap, churn uint16, k uint8, seed uint64) {
		spec := DefaultOffloadSpec()
		// A short bursty trace keeps each case fast while still crossing
		// calm and overloaded intervals.
		spec.Trace = BurstyTrace(6, 26, 4, 2, sim.Millisecond)
		spec.Seed = seed
		spec.Mix.Concurrency = 128
		// 0 .. ~0.25 forced flow restarts per packet.
		spec.Mix.ChurnPerPacket = float64(churn%256) / 1024
		// 1 .. 256 rules: tiny tables stress eviction and the serialized
		// insert path far harder than the default 512.
		spec.Table.Capacity = int(tcap)%256 + 1
		spec.Table.Evict = []flow.EvictPolicy{flow.EvictLRU, flow.EvictIdle, flow.EvictPriority}[int(ev)%3]
		switch pi % 3 {
		case 0:
			spec.Policy = OffloadPolicy{Kind: OffloadStaticFunction}
		case 1:
			spec.Policy = OffloadPolicy{Kind: OffloadStaticFlow, Threshold: int(k)%64 + 1}
		default:
			spec.Policy = OffloadPolicy{Kind: OffloadAdaptive, Adaptive: flow.DefaultAdaptiveConfig()}
		}

		r := NewRunner()
		r.Checks = true
		res := r.RunOffload(spec)
		if res.FastPath+res.SlowPath != res.Sent {
			t.Fatalf("datapath split leaks: fast %d + slow %d != sent %d",
				res.FastPath, res.SlowPath, res.Sent)
		}
		if res.Completed+res.Dropped != res.Sent {
			t.Fatalf("request ledger leaks: done %d + dropped %d != sent %d",
				res.Completed, res.Dropped, res.Sent)
		}
		if res.SLOAttainment < 0 || res.SLOAttainment > 1 || res.DropRate < 0 || res.DropRate > 1 {
			t.Fatalf("rate out of range: slo=%g drop=%g", res.SLOAttainment, res.DropRate)
		}
		if res.OccupancyPeak > spec.Table.Capacity {
			t.Fatalf("occupancy peak %d exceeds capacity %d", res.OccupancyPeak, spec.Table.Capacity)
		}
	})
}

// FuzzFaultedRun is the failover fuzzer: arbitrary (fault kind, window
// and factor, timeout, retry budget, backoff, watermark, balancer, seed)
// tuples replay a short trace under checked and recorded execution. A
// malformed input must come back as a typed error; any other must
// resolve every request exactly once, completed or dropped, with the
// checker silent. It is the oracle for late copies: a retry leaves the
// request's earlier copy in flight, and a copy or timer that fires after
// its request resolved must leave every request's state alone.
func FuzzFaultedRun(f *testing.F) {
	f.Add(uint8(5), uint8(64), uint8(64), uint8(1), uint16(300), uint8(4), uint16(100), uint8(128), uint8(96), true, uint64(1))
	f.Add(uint8(3), uint8(85), uint8(8), uint8(0), uint16(300), uint8(4), uint16(100), uint8(128), uint8(0), false, uint64(42))
	f.Add(uint8(0), uint8(40), uint8(90), uint8(16), uint16(20), uint8(7), uint16(5), uint8(200), uint8(4), true, uint64(7))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint16(0), uint8(0), uint16(0), uint8(0), uint8(0), false, uint64(0))

	targets := map[fault.Kind]string{
		fault.EngineCrash: "rem", fault.EngineStall: "rem", fault.EngineDegrade: "rem",
		fault.LinkFlap: "wire", fault.LinkRateCap: "wire",
		fault.CoreThrottle: "staging", fault.SensorDropout: "bmc",
	}
	f.Fuzz(func(t *testing.T, kind, at, window, factor uint8, timeout uint16, retries uint8,
		backoff uint16, mult, watermark uint8, hw bool, seed uint64) {
		// 24 intervals of 400 µs, bursting past the engine every sixth.
		tr := BurstyTrace(2, 60, 24, 6, 400*sim.Microsecond)
		span := tr.Duration()
		k := fault.Kind(kind % 7)
		var scn FaultScenario
		scn.Plan.Add(fault.Event{
			At:     sim.Time(span) * sim.Time(at) / 256,
			For:    span * sim.Duration(window) / 128,
			Kind:   k,
			Target: targets[k],
			// 0 .. ~2: straddles the valid (0,1].
			Factor: float64(factor) / 128,
		})
		lb := DefaultLoadBalancer()
		if hw {
			lb = HWLoadBalancer()
		}
		hr := NewHealthRouter(lb, FailoverPolicy{
			Timeout:        sim.Duration(timeout) * sim.Microsecond,
			MaxRetries:     int(retries % 8),
			BackoffBase:    sim.Duration(backoff) * sim.Microsecond,
			BackoffMult:    float64(mult) / 64,
			QueueWatermark: int(watermark),
		})
		r := NewRunner()
		r.Checks = true
		r.Telemetry = obs.NewCollector()
		res, err := r.Execute(Workload{Kind: WorkloadFaulted, Scenario: &scn, Router: hr,
			Trace: tr, HostCores: 2, Seed: seed})
		if err != nil {
			var pe *ParamError
			var ple *fault.PlanError
			if !errors.As(err, &pe) && !errors.As(err, &ple) {
				t.Fatalf("untyped rejection %T: %v", err, err)
			}
			return
		}
		if f := res.Fault; f.Total == 0 || f.Completed+f.Dropped != f.Total {
			t.Fatalf("requests leak: completed %d + dropped %d != total %d", f.Completed, f.Dropped, f.Total)
		}
	})
}
