package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// burstyFleetConfig is a small heterogeneous fleet on a bursty trace:
// bursts that overload the weak snic-cpu servers (cap ≈ 6.6 Gb/s for
// the trace workload) under an even split while the hosts (cap ≈ 65)
// have plenty of headroom.
func burstyFleetConfig(policy Policy) Config {
	return Config{
		Classes: []Class{NICHosts(2), SNICCPUs(2)},
		Policy:  policy,
		Trace:   core.BurstyTrace(4, 48, 12, 3, 300*sim.Microsecond),
		Seed:    7,
	}
}

func TestFleetRunBasics(t *testing.T) {
	r := core.NewRunner()
	res, err := Run(r, burstyFleetConfig(SLOAware))
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers != 4 || len(res.PerServer) != 4 {
		t.Fatalf("expected 4 servers, got %d/%d", res.Servers, len(res.PerServer))
	}
	if res.AggTputGbps <= 0 || res.PowerW <= 0 || res.TCO5yrUSD <= 0 {
		t.Fatalf("empty rollup: %+v", res)
	}
	if res.Latency.Count == 0 || res.FleetP99 <= 0 {
		t.Fatalf("no latency distribution: %+v", res.Latency)
	}
	if res.Attainment < 0 || res.Attainment > 1 {
		t.Fatalf("attainment out of range: %v", res.Attainment)
	}
	if res.UtilMin > res.UtilMean || res.UtilMean > res.UtilMax {
		t.Fatalf("utilization ordering broken: %v %v %v", res.UtilMin, res.UtilMean, res.UtilMax)
	}
	// Identical servers within a class share one simulation.
	if got := r.Sims(); got > 2 {
		t.Fatalf("symmetric 2-class fleet should share one simulation per class (≤2), ran %d", got)
	}
}

func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) (Result, []obs.RunManifest) {
		r := core.NewRunner()
		r.Parallelism = parallelism
		r.Telemetry = obs.NewCollector()
		cfg := burstyFleetConfig(SLOAware)
		cfg.Classes = []Class{NICHosts(2), SNICCPUs(1), SNICAccels(1)}
		cfg.Outages = []Outage{{Server: 1, FromInterval: 4, ToInterval: 8}}
		res, err := Run(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, r.Telemetry.Manifests()
	}
	r1, m1 := run(1)
	r8, m8 := run(8)
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("fleet result differs between -j 1 and -j 8:\n%+v\n%+v", r1, r8)
	}
	if !reflect.DeepEqual(m1, m8) {
		t.Fatalf("fleet telemetry manifests differ between -j 1 and -j 8")
	}
}

func TestSLOAwareBeatsRoundRobinP99OnBurstyTrace(t *testing.T) {
	r := core.NewRunner()
	rr, err := Run(r, burstyFleetConfig(RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	slo, err := Run(r, burstyFleetConfig(SLOAware))
	if err != nil {
		t.Fatal(err)
	}
	if slo.FleetP99 >= rr.FleetP99 {
		t.Fatalf("SLO-aware p99 %v should strictly beat round-robin %v", slo.FleetP99, rr.FleetP99)
	}
	if slo.Attainment < rr.Attainment {
		t.Fatalf("SLO-aware attainment %v worse than round-robin %v", slo.Attainment, rr.Attainment)
	}
}

func TestFailoverReroutingDrainsToHealthyPeers(t *testing.T) {
	// Crash one of three hosts mid-trace. Round-robin keeps sending it
	// traffic (lost); SLO-aware re-routes, so the fleet delivers more.
	mk := func(policy Policy) Config {
		return Config{
			Classes: []Class{NICHosts(3)},
			Policy:  policy,
			Trace:   core.BurstyTrace(6, 30, 12, 4, 300*sim.Microsecond),
			Seed:    11,
			Outages: []Outage{{Server: 0, FromInterval: 4, ToInterval: 9}},
		}
	}
	r := core.NewRunner()
	rr, err := Run(r, mk(RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	slo, err := Run(r, mk(SLOAware))
	if err != nil {
		t.Fatal(err)
	}
	if rr.LostGbps <= 0 {
		t.Fatalf("round-robin should lose the dead server's share, lost %v", rr.LostGbps)
	}
	if slo.LostGbps != 0 {
		t.Fatalf("SLO-aware should re-route around the dead server, lost %v", slo.LostGbps)
	}
	if slo.AggTputGbps <= rr.AggTputGbps {
		t.Fatalf("re-routing should deliver more: SLO-aware %v vs round-robin %v Gb/s",
			slo.AggTputGbps, rr.AggTputGbps)
	}
	if slo.DeliveredFrac <= rr.DeliveredFrac {
		t.Fatalf("delivered fraction: SLO-aware %v vs round-robin %v", slo.DeliveredFrac, rr.DeliveredFrac)
	}
}

func TestFleetValidation(t *testing.T) {
	r := core.NewRunner()
	bad := []Config{
		{},
		{Classes: []Class{NICHosts(2)}}, // no trace
		{Classes: []Class{NICHosts(2)}, Trace: flatTrace(1, 4)}, // no policy
		{Classes: []Class{NICHosts(1)}, Trace: flatTrace(1, 4), Policy: RoundRobin,
			Outages: []Outage{{Server: 5}}},
		{Classes: []Class{NICHosts(1)}, Trace: flatTrace(1, 4), Policy: RoundRobin,
			Function: "nope"},
		{Classes: []Class{NICHosts(1)}, Trace: flatTrace(1, 4), Policy: RoundRobin,
			Function: "fio", Variant: "read"}, // not net-served
	}
	for i, cfg := range bad {
		if _, err := Run(r, cfg); err == nil {
			t.Fatalf("config %d should have been rejected", i)
		}
	}
}

func TestFleetReportStableUnderRerun(t *testing.T) {
	render := func() []byte {
		r := core.NewRunner()
		res, err := Run(r, burstyFleetConfig(AdvisorDriven))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, s := range res.PerServer {
			b.WriteString(s.Class)
			b.WriteByte(' ')
		}
		b.WriteString(res.FleetP99.String())
		return b.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatalf("re-running the same fleet produced different output")
	}
}
