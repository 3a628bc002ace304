// Package netstack models the three networking stacks of the paper's
// methodology (§3.3): kernel TCP/UDP, DPDK poll-mode, and RDMA verbs.
//
// Key Observation 1 of the paper is entirely a statement about where
// stack cycles are spent: the kernel TCP/UDP stack burns thousands of CPU
// cycles per packet (syscalls, skb management, copies, wakeups), which the
// wimpy SNIC cores cannot absorb; DPDK reduces that to tens of cycles; and
// RDMA moves the transport into NIC hardware entirely, leaving the CPU
// only verb post/poll work — which is why RDMA functions are the ones
// worth offloading to the SNIC CPU.
//
// A Profile is a calibrated per-packet cost model that converts packet
// sizes into RX and TX cycles; an Endpoint binds a profile to a CPU pool
// and samples its fixed latency component.
package netstack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// Kind enumerates the stack families of paper Table 3.
type Kind string

const (
	KindUDP  Kind = "udp"
	KindTCP  Kind = "tcp"
	KindDPDK Kind = "dpdk"
	KindRDMA Kind = "rdma"
)

// Profile is a per-packet cost model for one stack.
type Profile struct {
	Name string
	Kind Kind

	// RxBaseCycles/RxPerByte: CPU cycles to receive one packet
	// (base + per-byte copy/checksum cost). Tx* likewise for sending.
	RxBaseCycles float64
	RxPerByte    float64
	TxBaseCycles float64
	TxPerByte    float64

	// FixedOneWay is the non-CPU latency each traversal pays: interrupt
	// mitigation, NAPI scheduling, and scheduler wakeups for the kernel
	// stacks; (near) zero for poll-mode DPDK; NIC DMA/doorbell time for
	// RDMA. This term is large for kernel stacks and is what keeps their
	// p99 ratios between platforms far smaller than their service-time
	// ratios (both platforms pay it).
	FixedOneWay sim.Duration
	// FixedSigma is the log-normal sigma of the fixed component.
	FixedSigma float64

	// Arm cores run the kernel stack with worse cache behaviour and no
	// x86-tuned fast paths; the penalty beyond raw IPC is modelled as
	// cycles multiplier = ArmMultBase + ArmMultSizeInv/packetBytes.
	// Small packets (per-packet-overhead dominated) are hit hardest,
	// matching the paper's 85.7% (64 B) vs 76.5% (1 KB) UDP gaps.
	ArmMultBase    float64
	ArmMultSizeInv float64
	// ArmFixedMult scales FixedOneWay on the SNIC CPU: interrupt
	// delivery and scheduler wakeups are slower on the A72 SoC too.
	ArmFixedMult float64

	// TransportInNIC marks RDMA: segmentation/retransmission live in NIC
	// hardware, so Rx/Tx costs above are verb post + CQE poll only.
	TransportInNIC bool
	// HostPathExtra is the additional one-way latency a host-CPU user of
	// NIC transport hardware pays versus the SNIC CPU's shorter on-board
	// path (paper: "it goes through a longer communication path to the
	// hardware" [76]). Applied per operation for RDMA endpoints on the
	// host; zero for the SNIC.
	HostPathExtra sim.Duration
	// HostVerbExtraCycles is extra host CPU work per verb (MMIO doorbell
	// setup, DMA descriptor maintenance across PCIe).
	HostVerbExtraCycles float64
}

// UDP returns the kernel UDP stack profile. Base costs reflect a
// syscall-per-packet receive path (~8 k cycles each way on Skylake).
func UDP() Profile {
	return Profile{
		Name:         "kernel UDP",
		Kind:         KindUDP,
		RxBaseCycles: 8000, RxPerByte: 0.5,
		TxBaseCycles: 8000, TxPerByte: 0.5,
		FixedOneWay:    28 * sim.Microsecond,
		FixedSigma:     0.45,
		ArmMultBase:    2.2,
		ArmMultSizeInv: 94,
		ArmFixedMult:   1.35,
	}
}

// TCP returns the kernel TCP stack profile: heavier than UDP (connection
// state, ACK clocking, congestion control) per packet.
func TCP() Profile {
	return Profile{
		Name:         "kernel TCP",
		Kind:         KindTCP,
		RxBaseCycles: 11500, RxPerByte: 0.7,
		TxBaseCycles: 10500, TxPerByte: 0.7,
		FixedOneWay: 30 * sim.Microsecond,
		FixedSigma:  0.45,
		// TCP's per-connection batching (delayed ACKs, GRO/TSO, socket
		// buffer coalescing) amortizes the Arm cores' per-packet pain
		// far better than connectionless UDP, so its Arm penalty is
		// much gentler — consistent with the paper's Redis-vs-UDP gap.
		ArmMultBase:    1.2,
		ArmMultSizeInv: 10,
		ArmFixedMult:   1.35,
	}
}

// DPDK returns the poll-mode userspace profile: no interrupts, no
// syscalls, batched descriptor processing. One core sustains 100 Gb/s of
// 1 KB packets on either platform (paper §3.3).
func DPDK() Profile {
	return Profile{
		Name:         "DPDK",
		Kind:         KindDPDK,
		RxBaseCycles: 25, RxPerByte: 0.008,
		TxBaseCycles: 25, TxPerByte: 0.007,
		FixedOneWay:    600 * sim.Nanosecond, // NIC DMA + descriptor latency
		FixedSigma:     0.15,
		ArmMultBase:    1.15,
		ArmMultSizeInv: 8,
	}
}

// RDMA returns the verbs profile (Reliable Connection transport, as the
// paper uses to avoid loss effects). CPU cost is post/poll only.
func RDMA() Profile {
	return Profile{
		Name:         "RDMA RC verbs",
		Kind:         KindRDMA,
		RxBaseCycles: 150, RxPerByte: 0,
		TxBaseCycles: 180, TxPerByte: 0,
		FixedOneWay:         1100 * sim.Nanosecond, // NIC transport engine
		FixedSigma:          0.12,
		ArmMultBase:         1.1,
		ArmMultSizeInv:      0,
		TransportInNIC:      true,
		HostPathExtra:       300 * sim.Nanosecond,
		HostVerbExtraCycles: 260,
	}
}

// ByKind returns the canonical profile for a stack kind.
func ByKind(k Kind) Profile {
	switch k {
	case KindUDP:
		return UDP()
	case KindTCP:
		return TCP()
	case KindDPDK:
		return DPDK()
	case KindRDMA:
		return RDMA()
	default:
		panic(fmt.Sprintf("netstack: unknown kind %q", k))
	}
}

// archMult returns the cycle multiplier for running this stack on the
// given architecture with the given packet size.
func (p *Profile) archMult(arch cpu.Arch, size int) float64 {
	if arch != cpu.ArchArm {
		return 1.0
	}
	if size < 1 {
		size = 1
	}
	return p.ArmMultBase + p.ArmMultSizeInv/float64(size)
}

// RxCycles returns the nominal cycle cost to receive a size-byte packet
// on the given architecture.
func (p *Profile) RxCycles(arch cpu.Arch, size int) float64 {
	c := p.RxBaseCycles + p.RxPerByte*float64(size)
	if p.TransportInNIC && arch == cpu.ArchX86 {
		c += p.HostVerbExtraCycles
	}
	return c * p.archMult(arch, size)
}

// TxCycles returns the nominal cycle cost to send a size-byte packet.
func (p *Profile) TxCycles(arch cpu.Arch, size int) float64 {
	c := p.TxBaseCycles + p.TxPerByte*float64(size)
	if p.TransportInNIC && arch == cpu.ArchX86 {
		c += p.HostVerbExtraCycles
	}
	return c * p.archMult(arch, size)
}

// Endpoint draws a stack's fixed one-way latency on one CPU pool from
// its own stream. The request path charges the pool the profile's RX
// and TX cycles itself.
type Endpoint struct {
	// fixed draws the fixed latency around its median with the
	// profile's sigma; extra is the host's longer path to NIC transport
	// hardware, or zero.
	fixed sim.LogNormalStream
	extra sim.Duration
}

// NewEndpoint returns an endpoint for the profile on a core of arch.
// The fixed latency's median, sigma and path extra are taken from the
// profile and the architecture here, once.
func NewEndpoint(prof Profile, arch cpu.Arch, seed uint64) *Endpoint {
	e := &Endpoint{fixed: sim.NewLogNormalStream(seed, prof.FixedMedian(arch), prof.FixedSigma)}
	if prof.TransportInNIC && arch == cpu.ArchX86 {
		e.extra = prof.HostPathExtra
	}
	return e
}

// FixedMedian returns the median of the stack's non-CPU one-way latency
// on a core of arch: FixedOneWay, scaled by ArmFixedMult on the SNIC
// SoC's slower interrupt path.
func (p *Profile) FixedMedian(arch cpu.Arch) sim.Duration {
	if arch == cpu.ArchArm && p.ArmFixedMult > 0 {
		return sim.Duration(float64(p.FixedOneWay) * p.ArmFixedMult)
	}
	return p.FixedOneWay
}

// FixedDelay samples the stack's non-CPU one-way latency around its
// FixedMedian, including the host's longer path to NIC transport
// hardware when applicable.
//
//snicvet:hotpath
func (e *Endpoint) FixedDelay() sim.Duration {
	return e.fixed.Next() + e.extra
}
