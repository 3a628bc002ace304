package fleet

import (
	"testing"

	"repro/internal/core"
)

func TestSearchMin(t *testing.T) {
	probes := 0
	meets := func(threshold int) func(int) bool {
		return func(n int) bool { probes++; return n >= threshold }
	}
	for _, want := range []int{1, 2, 3, 7, 100, 4096} {
		n, err := searchMin(4096, meets(want))
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("searchMin found %d, want %d", n, want)
		}
	}
	if probes == 0 {
		t.Fatalf("predicate never evaluated")
	}
	if _, err := searchMin(8, meets(9)); err == nil {
		t.Fatalf("unreachable target should error")
	}
}

// TestProvisionCompressRatio is the acceptance check on Table 5's
// headline generalization: the compression engine's throughput advantage
// means one SNIC-accelerator server replaces ≈3.5 NIC servers.
func TestProvisionCompressRatio(t *testing.T) {
	r := core.NewRunner()
	r.Parallelism = 4
	res, err := Provision(r, ProvisionSpec{
		App: "Compress", Function: "compress", Variant: "app", SNICPlatform: core.SNICAccel,
	}, ProvisionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio < 3.0 || res.Ratio > 4.0 {
		t.Fatalf("Compress NIC/SNIC server ratio %.2f, want ≈3.5 (paper Table 5)", res.Ratio)
	}
	if res.SavingsFrac <= 0 {
		t.Fatalf("Compress SNIC fleet should be cheaper, savings %.1f%%", res.SavingsFrac*100)
	}
	if res.Probes == 0 {
		t.Fatalf("search reported no probes")
	}
}

func TestProvisionEqualThroughputAppsNearUnity(t *testing.T) {
	r := core.NewRunner()
	r.Parallelism = 4
	res, err := Provision(r, ProvisionSpec{
		App: "OVS", Function: "ovs", Variant: "load100", SNICPlatform: core.SNICCPU,
	}, ProvisionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// OvS forwards in the eSwitch on both platforms: equal fleets.
	if res.Ratio < 0.9 || res.Ratio > 1.3 {
		t.Fatalf("OVS server ratio %.2f, want ≈1.0", res.Ratio)
	}
}

// TestProvisionFleetSimREM exercises the SLO-bound fleet-simulation
// predicate end to end on a deliberately small probe trace.
func TestProvisionFleetSimREM(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-simulation search in -short mode")
	}
	r := core.NewRunner()
	r.Parallelism = 4
	res, err := Provision(r, ProvisionSpec{
		App: "REM", Function: "rem", Variant: "file_executable",
		SNICPlatform: core.SNICAccel, FleetSim: true,
	}, ProvisionOpts{BaselineSNICServers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServersSNIC < 1 || res.ServersNIC < 1 {
		t.Fatalf("degenerate fleets: %+v", res)
	}
	// The paper's REM column: SNIC and NIC fleets are comparable in
	// size and the SNIC fleet does NOT save money (its hardware premium
	// isn't paid back by REM's power delta).
	if res.SavingsFrac >= 0 {
		t.Fatalf("REM SNIC fleet should cost more (paper Table 5), savings %.1f%%", res.SavingsFrac*100)
	}
	// Determinism: a second search over a fresh runner reproduces the
	// same provisioning answer.
	r2 := core.NewRunner()
	r2.Parallelism = 1
	res2, err := Provision(r2, ProvisionSpec{
		App: "REM", Function: "rem", Variant: "file_executable",
		SNICPlatform: core.SNICAccel, FleetSim: true,
	}, ProvisionOpts{BaselineSNICServers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res != res2 {
		t.Fatalf("provisioning not deterministic:\n%+v\n%+v", res, res2)
	}
}

// TestWireShortProbesFailSimulated simulates every REM provisioning
// probe that wireShort decides, on both sides, at baselines of 4 and
// the default 8 SNIC servers: each must fail its simulated verdict too.
// This is what keeps searchMin's path, and with it the probe count and
// every fleet size, the same as when every probe simulated.
func TestWireShortProbesFailSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("overloaded fleet replays in -short mode")
	}
	spec := ProvisionSpec{App: "REM", Function: "rem", Variant: "file_executable",
		SNICPlatform: core.SNICAccel, FleetSim: true}
	r := core.NewRunner()
	r.Parallelism = 4
	snicCap := r.MaxThroughput(core.TraceWorkload(spec.Function, spec.Variant), spec.SNICPlatform)
	for _, baseline := range []int{4, 8} {
		tr := probeTrace(float64(baseline) * snicCap.TputGbps)
		for _, plat := range []core.Platform{spec.SNICPlatform, core.HostCPU} {
			n := 1
			for ; ; n++ {
				fc := probeFleet(spec, plat, n, tr)
				if !wireShort(r, &fc) {
					break
				}
				fr, err := Run(r, fc)
				if err != nil {
					t.Fatal(err)
				}
				if meetsTarget(fr) {
					t.Errorf("baseline %d, %d× %s: wire-short probe meets its target (delivered %.4f)",
						baseline, n, plat, fr.DeliveredFrac)
				}
			}
			if n == 1 {
				t.Errorf("baseline %d, %s: no probe decided by the wire", baseline, plat)
			}
		}
	}
}
