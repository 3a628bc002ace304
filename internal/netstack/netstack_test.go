package netstack

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
)

func TestStackCostOrdering(t *testing.T) {
	// Per-packet CPU cost must be TCP > UDP >> DPDK > RDMA for a 1 KB
	// packet on x86 — the whole premise of kernel-bypass.
	const size = 1024
	rx := func(p Profile) float64 { return p.RxCycles(cpu.ArchX86, size) }
	tcp, udp, dpdk, rdma := rx(TCP()), rx(UDP()), rx(DPDK()), rx(RDMA())
	if !(tcp > udp && udp > 10*dpdk && dpdk < 1000 && rdma < 1000) {
		t.Fatalf("cost ordering broken: tcp=%v udp=%v dpdk=%v rdma=%v", tcp, udp, dpdk, rdma)
	}
}

func TestArmPenaltyLargerForSmallPackets(t *testing.T) {
	p := UDP()
	m64 := p.RxCycles(cpu.ArchArm, 64) / p.RxCycles(cpu.ArchX86, 64)
	m1k := p.RxCycles(cpu.ArchArm, 1024) / p.RxCycles(cpu.ArchX86, 1024)
	if m64 <= m1k {
		t.Fatalf("Arm penalty: 64B=%v must exceed 1KB=%v", m64, m1k)
	}
	if m1k < 1.5 {
		t.Fatalf("Arm kernel-stack penalty at 1KB = %v, want > 1.5", m1k)
	}
}

func TestDPDKOneCoreSustains100GbpsAt1KB(t *testing.T) {
	// Paper §3.3: "one host or SNIC CPU core can accomplish the 100 Gbps
	// line rate for 1 KB packets" with DPDK. Check per-packet service
	// time <= inter-arrival at line rate (83.9 ns incl. 24B overhead).
	interArrival := sim.DurationOf(1024+24, 100e9)
	for _, tc := range []struct {
		name string
		spec *cpu.Spec
	}{
		{"host", cpu.XeonGold6140()}, {"snic", cpu.BlueField2Arm()},
	} {
		prof := DPDK()
		cycles := prof.RxCycles(tc.spec.Arch, 1024)
		svc := sim.Cycles(cycles/tc.spec.IPC, tc.spec.BaseHz)
		if svc > interArrival {
			t.Errorf("%s: DPDK 1KB service %v > line-rate budget %v", tc.name, svc, interArrival)
		}
	}
}

func TestRDMAHostPaysLongerPath(t *testing.T) {
	p := RDMA()
	// Host pays extra verb cycles...
	hostRx := p.RxCycles(cpu.ArchX86, 1024)
	snicRx := p.RxCycles(cpu.ArchArm, 1024)
	if hostRx <= p.RxBaseCycles {
		t.Fatal("host RDMA must include verb-path extra cycles")
	}
	_ = snicRx
	// ...and extra fixed latency.
	host := NewEndpoint(p, cpu.ArchX86, 1)
	snic := NewEndpoint(p, cpu.ArchArm, 1)
	var hSum, sSum sim.Duration
	for i := 0; i < 1000; i++ {
		hSum += host.FixedDelay()
		sSum += snic.FixedDelay()
	}
	if hSum <= sSum {
		t.Fatalf("host mean fixed delay %v must exceed SNIC %v", hSum/1000, sSum/1000)
	}
}

func TestUDPThroughputRatioMatchesPaper(t *testing.T) {
	// Fig. 4 / O1: SNIC CPU offers 76.5%–85.7% lower UDP max throughput.
	// Max throughput ratio = host per-packet time / SNIC per-packet time.
	ratio := func(size int) float64 {
		p := UDP()
		hostSpec, snicSpec := cpu.XeonGold6140(), cpu.BlueField2Arm()
		hc := p.RxCycles(hostSpec.Arch, size) + p.TxCycles(hostSpec.Arch, size)
		sc := p.RxCycles(snicSpec.Arch, size) + p.TxCycles(snicSpec.Arch, size)
		hostT := hc / hostSpec.IPC / hostSpec.BaseHz
		snicT := sc / snicSpec.IPC / snicSpec.BaseHz
		return hostT / snicT // = SNIC tput / host tput
	}
	if r := ratio(64); r < 0.11 || r > 0.18 {
		t.Errorf("UDP 64B SNIC/host tput ratio = %.3f, want ~0.143 (85.7%% lower)", r)
	}
	if r := ratio(1024); r < 0.20 || r > 0.27 {
		t.Errorf("UDP 1KB SNIC/host tput ratio = %.3f, want ~0.235 (76.5%% lower)", r)
	}
}

func TestByKind(t *testing.T) {
	for _, k := range []Kind{KindUDP, KindTCP, KindDPDK, KindRDMA} {
		if p := ByKind(k); p.Kind != k {
			t.Errorf("ByKind(%v) returned kind %v", k, p.Kind)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	ByKind(Kind("bogus"))
}

// FixedDelay draws its latencies a block ahead, around a median and
// sigma fixed when the endpoint is built: its k-th delay is the k-th
// LogNormalDur of a same-seeded RNG around the profile's FixedMedian,
// plus the host's NIC-path extra for RDMA, on every stack and core.
func TestFixedDelayMatchesPerCall(t *testing.T) {
	for _, prof := range []Profile{UDP(), TCP(), DPDK(), RDMA()} {
		for _, arch := range []cpu.Arch{cpu.ArchX86, cpu.ArchArm} {
			e := NewEndpoint(prof, arch, 3)
			r := sim.NewRNG(3)
			for k := 0; k < 10_000; k++ {
				want := r.LogNormalDur(prof.FixedMedian(arch), prof.FixedSigma)
				if prof.TransportInNIC && arch == cpu.ArchX86 {
					want += prof.HostPathExtra
				}
				if got := e.FixedDelay(); got != want {
					t.Fatalf("%s on %s: delay %d = %v, per-call sampler %v", prof.Name, arch, k, got, want)
				}
			}
		}
	}
}
