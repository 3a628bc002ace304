// Package cpu models the processors of the testbed: the server's Intel
// Xeon Gold 6140 host CPU, the client's Xeon E5-2640 v3, and the
// BlueField-2 SNIC's eight Arm Cortex-A72 cores (paper Tables 1 and 2).
//
// The model is deliberately coarse: a core executes work measured in
// cycles at its spec's fixed frequency and relative IPC, with a
// memory-subsystem penalty supplied by package mem. Only fault injection
// moves the frequency (SetThrottle); there is no governor. ISA extensions
// (AES-NI, AVX/ISA-L, RDRAND) are not a speedup table here: they live in
// each catalog entry's calibrated host rate or SNIC cycle factor (package
// core). That is the level at which the paper's observations operate —
// "the SNIC CPU is not capable enough", "the host CPU can utilize its ISA
// extensions" — and it is the level we calibrate.
package cpu

import "fmt"

// Arch is a processor architecture family.
type Arch string

const (
	ArchX86 Arch = "x86-64"
	ArchArm Arch = "armv8"
)

// Spec describes a processor package.
type Spec struct {
	Name  string
	Arch  Arch
	Cores int
	// BaseHz is the sustained all-core operating frequency. For the host
	// the paper pins 2.1 GHz with the userspace governor (max under TDP,
	// HT and Turbo disabled); the A72s run at 2.0 GHz.
	BaseHz float64
	// IPC is a relative instructions-per-cycle factor versus the Skylake
	// host (host = 1.0). The A72 is a 3-wide in-order-ish core; measured
	// SPEC-rate style gaps versus Skylake land near 0.55.
	IPC float64
	// L3Bytes is the last-level cache capacity.
	L3Bytes int64
}

func (s *Spec) String() string {
	return fmt.Sprintf("%s (%s, %d cores @ %.1f GHz)", s.Name, s.Arch, s.Cores, s.BaseHz/1e9)
}

// XeonGold6140 returns the server host CPU of paper Table 2: Skylake,
// 18 cores (the paper uses 8 to match the SNIC), 24.75 MB LLC. Frequency
// pinned at 2.1 GHz with the userspace governor.
func XeonGold6140() *Spec {
	return &Spec{
		Name:    "Intel Xeon Gold 6140",
		Arch:    ArchX86,
		Cores:   18,
		BaseHz:  2.1e9,
		IPC:     1.0,
		L3Bytes: 24_750 * 1024,
	}
}

// XeonE52640v3 returns the client CPU of paper Table 2 (Broadwell,
// used only as the load generator).
func XeonE52640v3() *Spec {
	return &Spec{
		Name:    "Intel Xeon E5-2640 v3",
		Arch:    ArchX86,
		Cores:   8,
		BaseHz:  2.6e9,
		IPC:     0.9,
		L3Bytes: 20 * 1024 * 1024,
	}
}

// BlueField2Arm returns the SNIC processor of paper Table 1: eight
// Cortex-A72 cores at 2.0 GHz, 6 MB shared L3, 16 GB DDR4-3200 onboard.
func BlueField2Arm() *Spec {
	return &Spec{
		Name:    "BlueField-2 Arm (8x Cortex-A72)",
		Arch:    ArchArm,
		Cores:   8,
		BaseHz:  2.0e9,
		IPC:     0.55,
		L3Bytes: 6 * 1024 * 1024,
	}
}
