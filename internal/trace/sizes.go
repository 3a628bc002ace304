// Package trace generates the workloads and input data sets of the
// paper's methodology (§3.3–§3.4, §5.1): packet-size mixes standing in
// for the Stratosphere PCAP capture, Poisson/paced arrival processes,
// YCSB key-value workloads, synthetic Snort-style rule sets, and the
// hyperscaler diurnal network trace behind Fig. 7 and Table 4.
//
// Everything is produced from seeded sim.RNG streams: the data is
// synthetic but its distributional properties (bimodal datacenter packet
// sizes, Zipf key popularity, per-rule-set match densities, low-mean
// bursty datacenter rates) are the ones the paper's results depend on.
package trace

import (
	"fmt"

	"repro/internal/sim"
)

// SizeDist yields packet sizes in bytes.
type SizeDist interface {
	Next(r *sim.RNG) int
	Mean() float64
	String() string
}

// Fixed always returns the same size — the paper's 64 B and 1 KB
// microbenchmark packets and the MTU-sized OvS/REM streams.
type Fixed int

// Next implements SizeDist.
func (f Fixed) Next(*sim.RNG) int { return int(f) }

// Mean implements SizeDist.
func (f Fixed) Mean() float64 { return float64(f) }

func (f Fixed) String() string { return fmt.Sprintf("fixed %dB", int(f)) }

// Bimodal is the classic datacenter mix (Benson et al. [13]): most
// packets are tiny (ACKs, RPCs) or full-MTU (bulk), with a thin middle.
type Bimodal struct {
	SmallSize, LargeSize int
	SmallFrac            float64
	// MidFrac of packets draw uniformly between the modes.
	MidFrac float64
}

// CTUMixed returns a mix resembling the CTU-Mixed-Capture PCAP the paper
// replays with DPDK-Pktgen: ~45% small, ~45% MTU, 10% spread.
func CTUMixed() Bimodal {
	return Bimodal{SmallSize: 64, LargeSize: 1500, SmallFrac: 0.45, MidFrac: 0.10}
}

// Next implements SizeDist.
func (b Bimodal) Next(r *sim.RNG) int {
	u := r.Float64()
	switch {
	case u < b.SmallFrac:
		return b.SmallSize
	case u < b.SmallFrac+b.MidFrac:
		return b.SmallSize + r.Intn(b.LargeSize-b.SmallSize)
	default:
		return b.LargeSize
	}
}

// Mean implements SizeDist.
func (b Bimodal) Mean() float64 {
	mid := float64(b.SmallSize+b.LargeSize) / 2
	largeFrac := 1 - b.SmallFrac - b.MidFrac
	return b.SmallFrac*float64(b.SmallSize) + b.MidFrac*mid + largeFrac*float64(b.LargeSize)
}

func (b Bimodal) String() string {
	return fmt.Sprintf("bimodal %dB/%dB (%.0f%% small)", b.SmallSize, b.LargeSize, b.SmallFrac*100)
}

// Arrivals produces packet inter-arrival gaps for a target data rate.
type Arrivals struct {
	exp sim.ExpStream
}

// NewPoissonArrivals returns an open-loop Poisson arrival process, the
// standard model for aggregated datacenter traffic and what pktgen-style
// load generators approximate.
func NewPoissonArrivals(seed uint64) *Arrivals {
	return &Arrivals{exp: sim.NewExpStream(seed)}
}

// Gap returns the next inter-arrival time for packets of size bytes at
// rate bits/s: an exponential draw whose mean, the packet's time at the
// rate, is applied when the gap is used.
//
//snicvet:hotpath
func (a *Arrivals) Gap(size int, rateBits float64) sim.Duration {
	return a.exp.Exp(sim.DurationOf(size, rateBits))
}
