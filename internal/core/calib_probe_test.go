package core

import (
	"testing"
)

// TestCalibrationProbe prints the achieved SNIC÷host ratios for every
// catalog entry next to the paper targets. Run with -v to inspect. It
// fails on gross breakage (no throughput at all) and where a searched
// row's measured point leaves the analytic model's capacity for its
// (entry, platform): the search accepts a probe only at ≥97% delivered
// and measures at ≤0.97 × the accepted knee, so a point offered or
// delivering above the capacity means the model or the search is wrong.
// The knee itself may sit a little above the capacity. Each searched
// row logs knee ÷ capacity.
func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe is slow")
	}
	r := NewRunner()
	a := NewAdvisorWith(r)
	for _, cfg := range Catalog() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			t.Parallel()
			host := r.MaxThroughput(cfg, HostCPU)
			snic := r.MaxThroughput(cfg, cfg.SNICPlatform())
			if host.TputOps == 0 || snic.TputOps == 0 {
				t.Fatalf("zero throughput: host=%v snic=%v", host, snic)
			}
			tputRatio := snic.TputGbps / host.TputGbps
			p99Ratio := float64(snic.Latency.P99) / float64(host.Latency.P99)
			t.Logf("%-24s tput %.3f (want %.3f) | p99 %.2f (want %.2f) | host %.2f Gb/s p99=%v %.0fW | snic %.2f Gb/s p99=%v %.0fW",
				cfg.Name(), tputRatio, cfg.WantTputRatio, p99Ratio, cfg.WantP99Ratio,
				host.TputGbps, host.Latency.P99, host.ServerPowerW,
				snic.TputGbps, snic.Latency.P99, snic.ServerPowerW)
			if cfg.Mode != ModeNetServe && cfg.Mode != ModeStorage {
				return // closed-loop and switched rows run no search
			}
			for _, m := range []Measurement{host, snic} {
				capacity := a.Predict(cfg, m.Platform).TputGbps
				margin := 0.97 // MaxThroughput's measuring margin below the knee
				if m.Platform == SNICAccel {
					margin = 0.93
				}
				t.Logf("%-24s %-10s knee/capacity %.3f | offered/capacity %.3f | delivered/capacity %.3f",
					cfg.Name(), m.Platform, m.OfferedGbps/margin/capacity,
					m.OfferedGbps/capacity, m.TputGbps/capacity)
				if m.OfferedGbps > capacity || m.TputGbps > capacity {
					t.Errorf("%s on %s: offered %.3f and delivered %.3f Gb/s, analytic capacity %.3f Gb/s",
						cfg.Name(), m.Platform, m.OfferedGbps, m.TputGbps, capacity)
				}
			}
		})
	}
}
