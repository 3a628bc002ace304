package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// runBalanced replays tr through lb on r's testbed via Execute.
func runBalanced(t *testing.T, r *Runner, lb LoadBalancer, tr *trace.HyperscalerTrace, hostCores int, seed uint64) BalancedResult {
	t.Helper()
	res, err := r.Execute(Workload{Kind: WorkloadBalanced, Balancer: &lb, Trace: tr, HostCores: hostCores, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return *res.Balanced
}

func TestBurstyTraceShape(t *testing.T) {
	tr := BurstyTrace(1, 80, 12, 4, 300*sim.Microsecond)
	if len(tr.RatesGbps) != 12 {
		t.Fatalf("trace has %d points, want 12", len(tr.RatesGbps))
	}
	if tr.Duration() != 12*300*sim.Microsecond {
		t.Fatalf("trace span %v, want %v", tr.Duration(), 12*300*sim.Microsecond)
	}
	for i, rate := range tr.RatesGbps {
		want := 1.0
		if i%4 == 3 {
			want = 80
		}
		if rate != want {
			t.Fatalf("point %d = %v Gb/s, want %v", i, rate, want)
		}
	}
	if tr.PeakGbps() != 80 {
		t.Fatalf("peak %v, want 80", tr.PeakGbps())
	}
}

func TestBurstyTraceWithoutBurstsIsFlat(t *testing.T) {
	tr := BurstyTrace(2, 80, 8, 0, sim.Millisecond)
	for i, rate := range tr.RatesGbps {
		if rate != 2 {
			t.Fatalf("point %d = %v Gb/s, want flat 2", i, rate)
		}
	}
}

func TestRunBalancedSpillsBurstsToHost(t *testing.T) {
	// Bursts at 80 Gb/s exceed the accelerator's ~50 Gb/s cap, so the
	// hardware balancer must spill part of the load to the host.
	tr := BurstyTrace(1, 80, 20, 4, 300*sim.Microsecond)
	r := NewRunner()
	res := runBalanced(t, r, HWLoadBalancer(), tr, 4, 3)
	if res.HostShare <= 0 {
		t.Fatal("bursts above engine capacity never spilled to the host")
	}
	if res.HostShare >= 1 {
		t.Fatal("balancer sent everything to the host; the accelerator served nothing")
	}
	if res.AvgTputGbps <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
}

func TestRunBalancedStaysOnAccelAtLowRate(t *testing.T) {
	tr := BurstyTrace(1, 1, 16, 0, 300*sim.Microsecond)
	r := NewRunner()
	res := runBalanced(t, r, HWLoadBalancer(), tr, 4, 3)
	if res.HostShare != 0 {
		t.Fatalf("low-rate trace sent %.1f%% to the host; the accelerator alone handles 1 Gb/s",
			res.HostShare*100)
	}
	if res.Dropped != 0 {
		t.Fatalf("low-rate trace dropped %d packets", res.Dropped)
	}
}

func TestSoftwareBalancerBurnsSNICCycles(t *testing.T) {
	// The paper's preliminary finding: the software balancer pays a
	// per-packet monitoring cost on the SNIC cores that the hardware
	// balancer does not.
	tr := BurstyTrace(4, 4, 16, 0, 300*sim.Microsecond)
	r := NewRunner()
	sw := runBalanced(t, r, DefaultLoadBalancer(), tr, 4, 3)
	hw := runBalanced(t, r, HWLoadBalancer(), tr, 4, 3)
	if sw.SNICCPUUtil <= hw.SNICCPUUtil {
		t.Fatalf("software monitor util %.3f not above hardware %.3f", sw.SNICCPUUtil, hw.SNICCPUUtil)
	}
}

func TestHWLoadBalancerConfig(t *testing.T) {
	hw := HWLoadBalancer()
	if !hw.HWAssist {
		t.Fatal("HWLoadBalancer is not hardware-assisted")
	}
	if hw.MonitorCycles != 0 {
		t.Fatalf("hardware balancer charges %v monitor cycles", hw.MonitorCycles)
	}
	sw := DefaultLoadBalancer()
	if sw.HWAssist || sw.MonitorCycles <= 0 || sw.ReactInterval <= 0 {
		t.Fatalf("software balancer misconfigured: %+v", sw)
	}
}
