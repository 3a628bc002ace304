package power

// This file composes the standard testbed power domains used by every
// experiment: the server box (BMC domain) and the SNIC card (Yocto-Watt
// domain), with the SNIC nested inside the server — the BMC measures all
// PCIe devices, which is exactly why the paper needed the riser rig to
// isolate the card.

// Name lets a Model nest inside another Model as a Component.
func (m *Model) Name() string { return m.Label }

// Signals carries the live utilization feeds the power model scales with.
type Signals struct {
	// HostCPU is the host core pool's instantaneous busy fraction.
	HostCPU UtilizationSource
	// HostMemBW is the host memory subsystem's bandwidth utilization.
	HostMemBW UtilizationSource
	// SNICCPU is the Arm core pool's busy fraction.
	SNICCPU UtilizationSource
	// SNICEngines is the accelerator engines' aggregate busy fraction.
	SNICEngines UtilizationSource
	// WireUtil is the network port's utilization: the NIC datapath,
	// PCIe and DRAM churn of moving bits scales with it (this is what
	// makes a wire-saturating fio run cost ~90 W over idle in Table 5
	// even though its CPU use is one core).
	WireUtil UtilizationSource
}

func zeroUtil() float64 { return 0 }

func orZero(u UtilizationSource) UtilizationSource {
	if u == nil {
		return zeroUtil
	}
	return u
}

// Testbed is the pair of measurement domains.
type Testbed struct {
	// Server is the BMC domain: the whole box including the SNIC.
	Server *Model
	// SNIC is the Yocto-Watt domain: the card alone.
	SNIC *Model
}

// The active anchors' decomposition (see NewTestbed): the host
// package's full-load draw, the I/O share a CPU-bound workload adds to
// it, and the SNIC's Arm cores and engines.
const (
	HostCPUActiveW    Watts = 105
	HostIOActiveW     Watts = 10
	SNICArmActiveW    Watts = 3.4
	SNICEngineActiveW Watts = 2.0
)

// NewTestbed wires the standard domains from live signals, with the
// component watts calibrated to the paper's anchors:
//
//	idle:   140 (rest) + 58 (host CPU) + 25 (DRAM) + 29 (SNIC) = 252 W
//	active: 105 (CPU) + 15 (DRAM) + 20.6 (misc) + 10 (I/O)    = 150.6 W
//	SNIC:   3.4 (Arm cores) + 2.0 (engines)                   = 5.4 W
//
// The io-traffic component is 70 W at full line rate, but the CPU-bound
// workloads behind the 150.6 W anchor saturate the cores at ~15% wire
// utilization, contributing ~10 W of it there.
func NewTestbed(sig Signals) *Testbed {
	snic := NewModel("snic")
	snic.Add(Fixed{Label: "snic-soc-idle", W: SNICIdleW})
	snic.Add(Linear{Label: "snic-arm-cores", MaxActiveW: SNICArmActiveW, Util: orZero(sig.SNICCPU)})
	snic.Add(Linear{Label: "snic-engines", MaxActiveW: SNICEngineActiveW, Util: orZero(sig.SNICEngines)})

	server := NewModel("server")
	server.Add(Fixed{Label: "rest-of-server", W: 140})
	server.Add(Linear{Label: "host-cpu", IdleW: 58, MaxActiveW: HostCPUActiveW, Util: orZero(sig.HostCPU)})
	server.Add(Linear{Label: "host-dram", IdleW: 25, MaxActiveW: 15, Util: orZero(sig.HostMemBW)})
	server.Add(Linear{Label: "misc-active", MaxActiveW: 20.6, Util: orZero(sig.HostCPU)})
	server.Add(Linear{Label: "io-traffic", MaxActiveW: 70, Util: orZero(sig.WireUtil)})
	server.Add(snic)
	return &Testbed{Server: server, SNIC: snic}
}
