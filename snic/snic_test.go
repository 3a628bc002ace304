package snic_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/snic"
)

// point measures b on p at a fixed operating point through Execute,
// with the default run options otherwise.
func point(t *testing.T, tb *snic.Testbed, b *snic.Benchmark, p snic.Platform, offeredGbps float64, requests int) snic.Measurement {
	t.Helper()
	w := snic.Workload{Kind: snic.WorkloadPoint, Config: b, Platform: p, Opts: core.DefaultRunOpts()}
	w.Opts.OfferedGbps = offeredGbps
	w.Opts.Requests = requests
	res, err := tb.Execute(w)
	if err != nil {
		t.Fatal(err)
	}
	return *res.Point
}

func TestCatalogAccessible(t *testing.T) {
	bs := snic.Benchmarks()
	if len(bs) < 25 {
		t.Fatalf("catalog has %d entries, want the full Table 3 matrix", len(bs))
	}
	b, err := snic.LookupBenchmark("redis", "workload_a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snic.Describe(b), "redis/workload_a") {
		t.Fatal("Describe missing name")
	}
}

func TestRunThroughFacade(t *testing.T) {
	b, _ := snic.LookupBenchmark("nat", "10K")
	tb := snic.NewTestbed()
	m := point(t, tb, b, snic.HostCPU, 0.5, 4000)
	if m.Ops == 0 || m.Latency.P99 <= 0 {
		t.Fatalf("facade run produced no measurement: %v", m)
	}
	if m.ServerPowerW < 252 {
		t.Fatalf("power below idle: %v", m.ServerPowerW)
	}
}

func TestFacadeDeterminism(t *testing.T) {
	b, _ := snic.LookupBenchmark("udp-echo", "1024B")
	a := point(t, snic.NewTestbed(), b, snic.SNICCPU, 0.5, 3000)
	c := point(t, snic.NewTestbed(), b, snic.SNICCPU, 0.5, 3000)
	if a.TputGbps != c.TputGbps || a.Latency.P99 != c.Latency.P99 {
		t.Fatal("facade runs not deterministic")
	}
}

func TestPaperTable5ThroughFacade(t *testing.T) {
	rows := snic.PaperTable5()
	if len(rows) != 4 {
		t.Fatalf("Table 5 has %d rows", len(rows))
	}
	var sb strings.Builder
	snic.RenderTable5(&sb, rows)
	if !strings.Contains(sb.String(), "70.7%") {
		t.Fatal("rendered Table 5 missing the compression savings")
	}
}

func TestAnalyzeTCOFacade(t *testing.T) {
	row := snic.AnalyzeTCO("demo",
		snic.TCOInput{ThroughputGbps: 2, PowerW: 255},
		snic.TCOInput{ThroughputGbps: 1, PowerW: 300})
	if row.ServersNIC != 20 {
		t.Fatalf("NIC fleet = %d, want 20", row.ServersNIC)
	}
	if row.SavingsFrac <= 0 {
		t.Fatal("2x throughput at lower power must save money")
	}
}

func TestAdvisorFacade(t *testing.T) {
	a := snic.NewAdvisor()
	b, _ := snic.LookupBenchmark("compress", "app")
	rec := a.Advise(b, 0)
	if rec.Chosen != snic.SNICAccel {
		t.Fatalf("compression should offload to the engine: %v", rec)
	}
}

func TestHyperscalerTraceFacade(t *testing.T) {
	tr := snic.HyperscalerTrace()
	if m := tr.MeanGbps(); m < 0.75 || m > 0.77 {
		t.Fatalf("trace mean = %v", m)
	}
	var sb strings.Builder
	snic.RenderFig7(&sb, tr)
	if !strings.Contains(sb.String(), "Fig. 7") {
		t.Fatal("Fig. 7 render broken")
	}
}

func TestOptionsDeterminism(t *testing.T) {
	b, _ := snic.LookupBenchmark("udp-echo", "1024B")
	mk := func() snic.Measurement {
		tb := snic.NewTestbed(
			snic.WithHostCores(8),
			snic.WithSNICCores(8),
			snic.WithLinkRateGbps(100),
			snic.WithParallelism(8),
			snic.WithSeed(7),
		)
		return point(t, tb, b, snic.SNICCPU, 0.5, 3000)
	}
	x, y := mk(), mk()
	if x != y {
		t.Fatalf("same options gave different measurements:\n%v\n%v", x, y)
	}
	reseeded := point(t, snic.NewTestbed(snic.WithSeed(99)), b, snic.SNICCPU, 0.5, 3000)
	if reseeded.Latency.Mean == x.Latency.Mean {
		t.Fatal("WithSeed had no effect on the measurement")
	}
}

func TestWithProgress(t *testing.T) {
	var calls int
	tb := snic.NewTestbed(
		snic.WithParallelism(4),
		snic.WithProgress(func(done, total int, label string) {
			calls++
			if done < 1 || done > total || label == "" {
				t.Errorf("bad progress report: %d/%d %q", done, total, label)
			}
		}),
	)
	b, _ := snic.LookupBenchmark("nat", "10K")
	tb.MaxThroughput(b, snic.HostCPU)
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
	if sims := tb.Simulations(); sims == 0 {
		t.Fatalf("testbed reports %d simulations after a search", sims)
	}
}

func TestFaultSetFacade(t *testing.T) {
	tb := snic.NewTestbed(snic.WithParallelism(4))
	tr := snic.BurstyTrace(4, 60, 10, 4, 2*snic.Millisecond)
	scns := snic.DefaultFaultScenarios(tr.Duration())
	mk := func() *snic.HealthRouter {
		return snic.NewHealthRouter(snic.HardwareBalancer(), snic.DefaultFailoverPolicy())
	}
	rows := tb.RunFaultedSet(scns, mk, tr, 2, 42)
	if len(rows) != len(scns) {
		t.Fatalf("got %d rows for %d scenarios", len(rows), len(scns))
	}
	for i, row := range rows {
		if row.Scenario != scns[i].Name {
			t.Fatalf("row %d is %q, want %q (merge order broken)", i, row.Scenario, scns[i].Name)
		}
	}
}

func TestBalancerFacade(t *testing.T) {
	tb := snic.NewTestbed()
	tr := snic.BurstyTrace(4, 70, 12, 4, 2*snic.Millisecond)
	lb := snic.HardwareBalancer()
	out, err := tb.Execute(snic.Workload{Kind: snic.WorkloadBalanced, Balancer: &lb, Trace: tr, HostCores: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := *out.Balanced
	if res.AvgTputGbps <= 0 {
		t.Fatalf("balanced run produced nothing: %v", res)
	}
	if res.HostShare <= 0 {
		t.Fatal("bursts above engine capacity must spill to the host")
	}
}
