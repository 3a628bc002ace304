// Load balancer (§5.3 Strategy 3): ride the SNIC accelerator's energy
// efficiency at low rates, spill to the host before bursts break the SLO.
//
// The paper's Key Observation 3 is that the REM engine caps near
// 50 Gb/s — half the line rate — so host cores must stay reserved for
// bursts. This demo replays a bursty trace (5 Gb/s base, 72 Gb/s spikes)
// three ways and reproduces the paper's preliminary finding: a software
// balancer on the SNIC cores reacts too slowly and burns cycles
// monitoring; the proposed hardware-assisted balancer reacts per packet.
//
// Run with: go run ./examples/loadbalancer
package main

import (
	"fmt"
	"log"

	"repro/snic"
)

func main() {
	tb := snic.NewTestbed()
	tr := snic.BurstyTrace(5, 72, 60, 6, 2*snic.Millisecond)
	fmt.Printf("trace: %d intervals, mean %.1f Gb/s, bursts to %.0f Gb/s (engine caps ~50)\n\n",
		len(tr.RatesGbps), tr.MeanGbps(), tr.PeakGbps())

	balanced := func(lb snic.LoadBalancer) snic.BalancedResult {
		res, err := tb.Execute(snic.Workload{Kind: snic.WorkloadBalanced, Balancer: &lb,
			Trace: tr, HostCores: 8, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		return *res.Balanced
	}
	accelOnly := balanced(snic.LoadBalancer{SpillQueueThreshold: 1 << 30, HWAssist: true})
	software := balanced(snic.SoftwareBalancer())
	hardware := balanced(snic.HardwareBalancer())

	const slo = 300 * snic.Microsecond
	fmt.Printf("%-28s %10s %14s %10s %12s %8s\n",
		"configuration", "tput Gb/s", "p99", "server W", "host share", "SLO?")
	for _, row := range []struct {
		name string
		r    snic.BalancedResult
	}{
		{"accelerator only", accelOnly},
		{"software balancer", software},
		{"hardware-assisted balancer", hardware},
	} {
		ok := "MEETS"
		if row.r.P99 > slo {
			ok = "VIOLATES"
		}
		fmt.Printf("%-28s %10.2f %14v %10.1f %11.1f%% %8s\n",
			row.name, row.r.AvgTputGbps, row.r.P99, row.r.AvgPowerW, row.r.HostShare*100, ok)
	}
	fmt.Printf("\n(SLO: p99 <= %v. The hardware balancer meets it while spilling\n", slo)
	fmt.Println("less traffic to the host than the software one — the paper's case")
	fmt.Println("for building the balancer into future SNIC hardware.)")
}
