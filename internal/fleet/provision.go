package fleet

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tco"
	"repro/internal/trace"
)

// Provisioning answers Table 5's question in its general form: how many
// servers of each flavour does a target offered load take, at a target
// SLO? The paper fixes the SNIC fleet at 10 servers and sizes the NIC
// fleet to equal aggregate throughput; here both sides are found by the
// same minimum-server search, so the published ratios (equal fleets for
// fio/OvS/REM, ≈3.5× NIC servers for Compress) fall out of measured
// capacities instead of being assumed.

// ProvisionSpec names one application column of the provisioning table.
type ProvisionSpec struct {
	App      string
	Function string
	Variant  string
	// SNICPlatform is the SmartNIC-side deployment (the NIC side is
	// always the host CPU).
	SNICPlatform core.Platform
	// FleetSim selects the search predicate. True runs a full SLO-aware
	// fleet simulation per probe (the trace-replay regime: bursty load,
	// attainment measured from latency distributions). False sizes by
	// measured max-throughput capacity, which is the paper's own
	// arithmetic for throughput-bound applications.
	FleetSim bool
}

// Table5Specs returns the paper's four applications. REM is the trace
// workload, so it provisions through fleet simulation; the others are
// capacity-bound and size by measured max throughput.
func Table5Specs() []ProvisionSpec {
	return []ProvisionSpec{
		{App: "fio", Function: "fio", Variant: "read", SNICPlatform: core.SNICCPU},
		{App: "OVS", Function: "ovs", Variant: "load100", SNICPlatform: core.SNICCPU},
		{App: "REM", Function: "rem", Variant: string(trace.RuleSetExecutable), SNICPlatform: core.SNICAccel, FleetSim: true},
		{App: "Compress", Function: "compress", Variant: "app", SNICPlatform: core.SNICAccel},
	}
}

// ProvisionOpts tunes the search.
type ProvisionOpts struct {
	// BaselineSNICServers sizes the offered load both fleets must serve:
	// this many times the SNIC side's measured capacity, mirroring
	// Table 5's fixed SNIC baseline (default 8).
	BaselineSNICServers int
}

// maxServers bounds the minimum-server search.
const maxServers = 4096

// ProvisionResult is one application's provisioning outcome.
type ProvisionResult struct {
	App          string
	SNICPlatform core.Platform
	TargetGbps   float64

	ServersSNIC int
	ServersNIC  int
	// Ratio is NIC servers per SNIC server — Table 5's headline number.
	Ratio float64

	// Per-server measured power on each side.
	SNICPowerW float64
	NICPowerW  float64

	TCOSNIC     float64
	TCONIC      float64
	SavingsFrac float64

	// Probes counts predicate evaluations across both searches.
	Probes int
}

func (p ProvisionResult) String() string {
	return fmt.Sprintf("%-10s %d× %s vs %d× NIC host (%.2fx) — savings %.1f%%",
		p.App, p.ServersSNIC, p.SNICPlatform, p.ServersNIC, p.Ratio, p.SavingsFrac*100)
}

// Provision runs the minimum-server search for one application.
func Provision(r *core.Runner, spec ProvisionSpec, opts ProvisionOpts) (ProvisionResult, error) {
	baseline := opts.BaselineSNICServers
	if baseline <= 0 {
		baseline = 8
	}
	cfg, err := core.Lookup(spec.Function, spec.Variant)
	if err != nil {
		return ProvisionResult{}, fmt.Errorf("fleet: %v", err)
	}
	res := ProvisionResult{App: spec.App, SNICPlatform: spec.SNICPlatform}
	if spec.FleetSim {
		// Fleet probes replay the MTU trace workload; size and meter
		// against the same shape.
		cfg = core.TraceWorkload(spec.Function, spec.Variant)
	}

	// Measured per-server operating points (memoized across calls).
	snicCap := r.MaxThroughput(cfg, spec.SNICPlatform)
	nicCap := r.MaxThroughput(cfg, core.HostCPU)
	res.SNICPowerW = snicCap.ServerPowerW
	res.NICPowerW = nicCap.ServerPowerW

	res.TargetGbps = float64(baseline) * snicCap.TputGbps

	probes := 0
	meets := func(plat core.Platform, capGbps float64) func(int) bool {
		if !spec.FleetSim {
			return func(n int) bool {
				probes++
				return float64(n)*capGbps >= res.TargetGbps
			}
		}
		// Probes replay the diurnal trace, subsampled and time-compressed
		// for speed and rescaled so its mean hits the target load, and
		// gate on the fleet's default SLO (300 µs) and attainment target
		// (0.99).
		shape := trace.NewHyperscalerTrace(trace.DefaultHyperscalerConfig()).
			Subsample(16).Compress(150 * sim.Microsecond)
		return func(n int) bool {
			probes++
			fc := Config{
				Classes:  []Class{{Name: "prov-" + string(plat), Platform: plat, Count: n}},
				Policy:   SLOAware,
				Function: spec.Function,
				Variant:  spec.Variant,
				Trace:    shape.Scale(res.TargetGbps / shape.MeanGbps()),
			}
			fr, err := Run(r, fc)
			if err != nil {
				panic(err) // config is internally constructed; can't fail
			}
			return fr.MeetsSLO && fr.DeliveredFrac >= 0.97
		}
	}

	res.ServersSNIC, err = searchMin(maxServers, meets(spec.SNICPlatform, snicCap.TputGbps))
	if err != nil {
		return res, fmt.Errorf("fleet: %s SNIC side: %v", spec.App, err)
	}
	res.ServersNIC, err = searchMin(maxServers, meets(core.HostCPU, nicCap.TputGbps))
	if err != nil {
		return res, fmt.Errorf("fleet: %s NIC side: %v", spec.App, err)
	}
	res.Probes = probes
	res.Ratio = float64(res.ServersNIC) / float64(res.ServersSNIC)

	m := tco.PaperCostModel()
	res.TCOSNIC = m.FleetTCO(homogeneous(res.ServersSNIC, true, res.SNICPowerW))
	res.TCONIC = m.FleetTCO(homogeneous(res.ServersNIC, false, res.NICPowerW))
	res.SavingsFrac = 1 - res.TCOSNIC/res.TCONIC
	return res, nil
}

// ProvisionTable5 provisions every Table 5 application.
func ProvisionTable5(r *core.Runner, opts ProvisionOpts) ([]ProvisionResult, error) {
	specs := Table5Specs()
	out := make([]ProvisionResult, len(specs))
	for i, spec := range specs {
		res, err := Provision(r, spec, opts)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

func homogeneous(n int, snic bool, powerW float64) []tco.FleetServer {
	out := make([]tco.FleetServer, n)
	for i := range out {
		out[i] = tco.FleetServer{SNIC: snic, PowerW: powerW}
	}
	return out
}

// searchMin finds the smallest n in [1, max] with meets(n) true,
// assuming meets is monotone in n: exponential doubling to bracket, then
// binary search inside the bracket.
func searchMin(max int, meets func(int) bool) (int, error) {
	lo, hi := 0, 1
	for !meets(hi) {
		if hi >= max {
			return 0, fmt.Errorf("no fleet of ≤ %d servers meets the target", max)
		}
		lo = hi
		hi = int(math.Min(float64(hi*2), float64(max)))
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if meets(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
