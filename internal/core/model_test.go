package core

import (
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/netstack"
	"repro/internal/obs"
)

// The request path draws each core service time from the analytic
// model's median under log-normal jitter, so at light load, where no
// queue forms, a run's mean cpu-service span must equal the model's
// median × exp(σ²/2), the jitter's mean. Each run's mean must fall
// within a 99.9% batch-means confidence bound, as the substrate oracles
// in internal/sim check theirs. The services are about a microsecond or
// longer: LogNormalDur floors to whole nanoseconds, which biases the
// mean of a tens-of-nanoseconds service far outside the bound (DPDK
// ping-pong's 31 ns median reads 0.985).
func TestServiceTimeMatchesModel(t *testing.T) {
	tb := NewTestbed(DefaultTestbedConfig())
	link := DefaultTestbedConfig().LinkGbps()
	type run struct {
		ps    *PipelineSpec
		phase int
		in    int // the phase's input bytes (the mean of a mix)
		cfg   *Config
		plat  Platform
	}
	var runs []run
	for _, c := range []struct {
		fn, variant string
		plat        Platform
	}{
		{"udp-echo", "64B", HostCPU},
		{"udp-echo", "64B", SNICCPU},
		{"nat", "1M", SNICCPU},
		{"redis", "workload_a", HostCPU},
		// Mixed sizes, priced at the whole-byte mean, and the host's
		// MixedExtraCycles.
		{"rem", "file_executable", HostCPU},
	} {
		cfg, err := Lookup(c.fn, c.variant)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{ps: PipelineFromConfig(cfg, c.plat), in: meanReq(cfg.ReqSize, cfg.Mixed),
			cfg: cfg, plat: c.plat})
	}
	// The SNIC-core send phase of the egress chain, behind two engines
	// and the compress phase's payload transform.
	ccs := CryptoCompressSendPipeline()
	runs = append(runs, run{ps: ccs, phase: 2, in: ccs.Phases[1].outSize(ccs.Phases[0].outSize(ccs.ReqSize))})

	for _, rn := range runs {
		ph := &rn.ps.Phases[rn.phase]
		t.Run(rn.ps.Name+"/"+ph.Name+"@"+string(ph.platform()), func(t *testing.T) {
			prof := netstack.ByKind(rn.ps.Stack)
			median := phaseTime(tb, &prof, rn.ps, rn.phase, rn.in, false)
			sigma := ph.Sigma
			if sigma <= 0 {
				sigma = 0.20
			}
			want := float64(median) * math.Exp(sigma*sigma/2)

			r := NewRunner()
			r.Telemetry = obs.NewCollector()
			r.Telemetry.EnableTrace()
			opts := DefaultRunOpts()
			if rn.cfg != nil {
				opts.OfferedGbps = 0.3 * NewAdvisorWith(r).Predict(rn.cfg, rn.plat).TputGbps
				r.Run(rn.cfg, rn.plat, opts)
			} else {
				opts.OfferedGbps = 0.3 * pipelineGbps(tb, link, rn.ps)
				r.RunPipeline(rn.ps, opts)
			}
			var svcs []float64
			for _, rec := range r.Telemetry.Runs() {
				for id := 1; id <= rec.SpanCount(); id++ {
					if v, _ := rec.View(obs.SpanID(id)); v.Name == "cpu-service" {
						svcs = append(svcs, float64(v.End.Sub(v.Start)))
					}
				}
			}
			if len(svcs) != opts.Requests {
				t.Fatalf("%d cpu-service spans for %d requests", len(svcs), opts.Requests)
			}
			mean, half := batchMeans(svcs)
			t.Logf("mean service %.1f ns ± %.1f, model %v × exp(σ²/2) = %.1f ns (ratio %.4f)",
				mean, half, median, want, mean/want)
			if half > 0.1*want {
				t.Fatalf("confidence half-width %.1f ns is over 10%% of the model's %.1f ns: run longer", half, want)
			}
			if math.Abs(mean-want) > half {
				t.Fatalf("mean service %.1f ns, model %.1f ns: outside ±%.1f ns", mean, want, half)
			}
		})
	}
}

// batchMeans returns the mean of xs and its 99.9% confidence half-width
// from 30 batch means (Student's t for 29 degrees of freedom).
func batchMeans(xs []float64) (mean, half float64) {
	const batches, tBatches = 30, 3.659
	size := len(xs) / batches
	var sum, sumSq float64
	for b := 0; b < batches; b++ {
		var m float64
		for _, x := range xs[b*size : (b+1)*size] {
			m += x
		}
		m /= float64(size)
		sum += m
		sumSq += m * m
	}
	mean = sum / batches
	return mean, tBatches * math.Sqrt((sumSq-batches*mean*mean)/(batches-1)) / math.Sqrt(batches)
}

// pipelineGbps prices a PKA-operation engine phase at the phase's
// input size, not at a 64 KiB operation: a one-phase RSA pipeline on
// 256 B requests signs OpRate requests a second, far below its staging
// cores' bound, and a saturation walk seeded from the model brackets
// that capacity and finds its knee.
func TestPipelineGbpsPricesPKAOpsAtTheirInput(t *testing.T) {
	ps := &PipelineSpec{
		Name: "rsa-sign", Stack: netstack.KindDPDK, ReqSize: 256, RespSize: 256,
		Phases: []PhaseSpec{{Name: "sign", Resource: ResEngine, Engine: EnginePKAOp, PKAAlgo: accel.AlgoRSA}},
	}
	r := NewRunner()
	tb := NewTestbed(r.TBConfig)
	want := tb.PKA.OpRate[accel.AlgoRSA] * 256 * 8 / 1e9
	if got := pipelineGbps(tb, r.TBConfig.LinkGbps(), ps); got != want {
		t.Fatalf("model capacity %.4f Gb/s, want OpRate·256·8 = %.4f Gb/s", got, want)
	}
	res := r.SaturationSearch(ps, SaturationOpts{Points: 4, Seed: 42})
	lo, hi := res.Points[0].OfferedGbps, res.Points[len(res.Points)-1].OfferedGbps
	if !(lo < want && want < hi) {
		t.Fatalf("walk offered %.4f–%.4f Gb/s, which does not bracket the %.4f Gb/s capacity", lo, hi, want)
	}
	if res.KneeGbps <= 0 {
		t.Fatalf("walk over %.4f–%.4f Gb/s found no knee", lo, hi)
	}
	t.Logf("capacity %.4f Gb/s, walk %.4f–%.4f Gb/s, knee %.4f Gb/s", want, lo, hi, res.KneeGbps)
}
