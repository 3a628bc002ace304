package core

import (
	"testing"

	"repro/internal/sim"
)

// TestReplayServerCeilingHolds is ReplayServerCeilingGbps's proof
// obligation: constant-rate server replays offered half, one and a half
// and three times the ceiling, at MTU and at 64 B requests, on the
// default 100 GbE wire and on a 25 GbE one, never report more than it.
// The DPDK ping-pong host keeps up with the wire at MTU, so there the
// overloaded replays must also come within 1% of the ceiling: the bound
// is the wire's, and a ceiling that ignored DurationOf's truncation
// (98.43 Gb/s at 100 GbE) would fall below them. At 64 B the host's
// cores, not the wire, bind.
func TestReplayServerCeilingHolds(t *testing.T) {
	const intervals = 100
	const interval = 10 * sim.Microsecond
	for _, link := range []float64{0, 25} {
		for _, size := range []int{nicMTU, 64} {
			cfg := *TraceWorkload("dpdk-pingpong", "1024B")
			cfg.ReqSize = size
			r := NewRunner()
			r.TBConfig.LinkRateGbps = link
			ceiling := r.ReplayServerCeilingGbps(&cfg, intervals, interval)
			for _, mult := range []float64{0.5, 1.5, 3} {
				rates := make([]float64, intervals)
				for i := range rates {
					rates[i] = mult * ceiling
				}
				rep := r.ReplayServer(&cfg, HostCPU, rates, interval, 11, "ceiling")
				if rep.AvgTputGbps > ceiling {
					t.Errorf("link %gG, %d B at %.1f× the ceiling: AvgTputGbps %v > ceiling %v",
						r.TBConfig.LinkGbps(), size, mult, rep.AvgTputGbps, ceiling)
				}
				if size == nicMTU && mult > 1 && rep.AvgTputGbps < 0.99*ceiling {
					t.Errorf("link %gG, MTU at %.1f× the ceiling: AvgTputGbps %v, below 99%% of ceiling %v",
						r.TBConfig.LinkGbps(), mult, rep.AvgTputGbps, ceiling)
				}
			}
		}
	}
}
