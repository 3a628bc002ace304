// Package core assembles the substrates into the paper's testbed and
// methodology: a client and a server joined by a 100 GbE wire, the server
// carrying a BlueField-2-like SNIC, execution platforms (host CPU, SNIC
// CPU, SNIC accelerators), the power instrumentation, the benchmark
// catalog of Table 3 with its calibration, and the experiment runner that
// finds maximum sustainable throughput and measures p99 latency and
// system-wide energy efficiency — plus the §5.3 strategies (offload
// advisor, SNIC↔host load balancer) as working components.
package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/nic"
	"repro/internal/pcie"
	"repro/internal/power"
	"repro/internal/sim"
)

// Platform is an execution target for a function (Table 3's HC/SC/SA).
type Platform string

const (
	// HostCPU runs the function on the server's Xeon cores.
	HostCPU Platform = "host-cpu"
	// SNICCPU runs it on the BlueField-2 Arm cores.
	SNICCPU Platform = "snic-cpu"
	// SNICAccel runs it on a fixed-function engine fed by SNIC staging
	// cores.
	SNICAccel Platform = "snic-accel"
)

// Platforms lists all execution targets.
func Platforms() []Platform { return []Platform{HostCPU, SNICCPU, SNICAccel} }

// Testbed is one fully wired simulation instance. Build a fresh testbed
// per experiment run: state (queues, meters, sensors) is not reusable.
type Testbed struct {
	Eng  *sim.Engine
	Wire *nic.Wire
	Sw   *nic.ESwitch
	Bus  *pcie.Bus

	HostSpec *cpu.Spec
	SNICSpec *cpu.Spec
	HostMem  *mem.Spec
	SNICMem  *mem.Spec

	// HostPool and SNICPool are the serving core pools, sized per
	// experiment (8/8 by default, per §3.4).
	HostPool *cpu.Pool
	SNICPool *cpu.Pool
	// StagingPool is the two SNIC cores that feed accelerator engines
	// (§3.4: REM and Compression use two SNIC CPU cores for staging).
	StagingPool *cpu.Pool

	REM     *accel.ByteEngine
	Deflate *accel.ByteEngine
	PKA     *accel.PKAEngine

	Power     *power.Testbed
	BMC       *power.Sensor
	YoctoWatt *power.Sensor

	// engineUtil is a live utilization signal experiments update as the
	// run proceeds; the power model samples it.
	engineUtil float64
	// hostPolling/snicPolling mark poll-mode stacks whose cores burn
	// cycles even when idle.
	hostPolling bool
	snicPolling bool
	// snicServeActive/stagingActive gate which SNIC pools participate in
	// the current experiment (serving cores vs accelerator staging).
	snicServeActive float64
	stagingActive   float64
	// hostTrafficShare is the fraction of wire traffic that crosses into
	// host memory (1 for host-served functions, 0 for card-resident).
	hostTrafficShare float64

	rng *sim.RNG
}

// TestbedConfig sizes a testbed.
type TestbedConfig struct {
	Seed      uint64
	HostCores int
	SNICCores int
	// StagingCores for accelerator feeds.
	StagingCores int
	// Propagation is the one-way wire delay (back-to-back DAC).
	Propagation sim.Duration
	// LinkRateGbps is the wire speed; zero keeps the paper's 100 GbE.
	LinkRateGbps float64
}

// LinkGbps returns the configured wire speed with the default applied.
func (c TestbedConfig) LinkGbps() float64 {
	if c.LinkRateGbps > 0 {
		return c.LinkRateGbps
	}
	return nic.LineRateBits / 1e9
}

// DefaultTestbedConfig mirrors §3.1/§3.4: 8 host cores against the
// 8-core SNIC, 2 staging cores, short direct cable.
// defaultMasterSeed is DefaultTestbedConfig's Seed; Runner.runSeed
// treats it as the identity so the paper's published streams are what
// the default configuration reproduces.
const defaultMasterSeed = 1

func DefaultTestbedConfig() TestbedConfig {
	return TestbedConfig{
		Seed:         defaultMasterSeed,
		HostCores:    8,
		SNICCores:    8,
		StagingCores: 2,
		Propagation:  250 * sim.Nanosecond,
	}
}

// NewTestbed wires a testbed.
func NewTestbed(cfg TestbedConfig) *Testbed {
	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	hostSpec := cpu.XeonGold6140()
	snicSpec := cpu.BlueField2Arm()

	tb := &Testbed{
		Eng:      eng,
		Wire:     nic.NewWireRate(eng, cfg.LinkGbps()*1e9, cfg.Propagation),
		Sw:       nic.NewESwitch(eng),
		Bus:      pcie.NewBus(eng, pcie.Gen4x16()),
		HostSpec: hostSpec,
		SNICSpec: snicSpec,
		HostMem:  mem.ServerDDR4(),
		SNICMem:  mem.BlueField2DDR4(),
		rng:      rng,
	}
	tb.HostPool = cpu.NewPool(eng, hostSpec, cfg.HostCores, rng.Uint64())
	// The SNIC's serving cores exclude the staging cores when engines
	// are in use; experiments pick the pool they drive.
	tb.SNICPool = cpu.NewPool(eng, snicSpec, cfg.SNICCores, rng.Uint64())
	tb.StagingPool = cpu.NewPool(eng, snicSpec, cfg.StagingCores, rng.Uint64())

	tb.REM = accel.REMEngine(eng)
	tb.Deflate = accel.CompressEngine(eng)
	tb.PKA = accel.NewPKAEngine(eng)

	// Power signals use cumulative (run-average) utilizations, scaled to
	// the 8-core basis the power budget was calibrated on (§3.4 uses 8
	// host cores against the 8 SNIC cores). Poll-mode stacks pin their
	// cores at 100% regardless of delivered work — that is why the paper
	// measures 278 W for host DPDK/REM even at a 0.76 Gb/s trace rate.
	tb.Power = power.NewTestbed(power.DefaultBudget(), power.Signals{
		HostCPU: func() float64 {
			u := tb.HostPool.Utilization()
			if tb.hostPolling {
				u = 1
			}
			return u * float64(tb.HostPool.Cores()) / 8.0
		},
		SNICCPU: func() float64 {
			serve := tb.SNICPool.Utilization()
			stage := tb.StagingPool.Utilization()
			if tb.snicPolling {
				serve, stage = 1, 1
			}
			busyCores := serve*float64(tb.SNICPool.Cores())*tb.snicServeActive +
				stage*float64(tb.StagingPool.Cores())*tb.stagingActive
			return busyCores / 8.0
		},
		SNICEngines: func() float64 { return tb.engineUtil },
		// Only traffic that crosses into the host (PCIe + host DRAM
		// churn) lights up the io-traffic component; traffic terminating
		// on the card (SNIC-served functions, eSwitch-forwarded OvS)
		// never touches host memory — that is why Table 5's SNIC
		// columns sit at ~255 W even at line rate.
		WireUtil: func() float64 {
			u := tb.Wire.ServerDirUtilization()
			if c := tb.Wire.ClientDirUtilization(); c > u {
				u = c
			}
			return u * tb.hostTrafficShare
		},
	})
	tb.BMC = power.NewBMCSensor(eng, tb.Power.Server.Power)
	tb.YoctoWatt = power.NewYoctoWattSensor(eng, tb.Power.SNIC.Power)
	return tb
}

// SetEngineUtil updates a live power-model signal. A plain field
// suffices: sensors sample on the event loop — no concurrency.
func (tb *Testbed) SetEngineUtil(u float64) { tb.engineUtil = u }

// SetPolling marks a platform's stack as poll-mode for power accounting.
func (tb *Testbed) SetPolling(p Platform, on bool) {
	if p == HostCPU {
		tb.hostPolling = on
	} else {
		tb.snicPolling = on
	}
}

// ActivateSNICPools declares which SNIC core pools the current experiment
// exercises (1 = counts toward SNIC power, 0 = parked).
func (tb *Testbed) ActivateSNICPools(serve, staging float64) {
	tb.snicServeActive = serve
	tb.stagingActive = staging
}

// SetHostTrafficShare declares what fraction of wire traffic crosses
// into host memory for io-traffic power accounting.
func (tb *Testbed) SetHostTrafficShare(f float64) { tb.hostTrafficShare = f }

// PoolFor returns the serving pool for a platform.
func (tb *Testbed) PoolFor(p Platform) *cpu.Pool {
	switch p {
	case HostCPU:
		return tb.HostPool
	case SNICCPU:
		return tb.SNICPool
	case SNICAccel:
		return tb.StagingPool
	default:
		panic(fmt.Sprintf("core: unknown platform %q", p))
	}
}

// SpecFor returns the CPU spec behind a platform's pool.
func (tb *Testbed) SpecFor(p Platform) *cpu.Spec {
	if p == HostCPU {
		return tb.HostSpec
	}
	return tb.SNICSpec
}

// MemFor returns the memory subsystem behind a platform.
func (tb *Testbed) MemFor(p Platform) *mem.Spec {
	if p == HostCPU {
		return tb.HostMem
	}
	return tb.SNICMem
}

// withCores returns the configuration with the pool sizes a config or
// pipeline overrides; zero keeps the default.
func (c TestbedConfig) withCores(host, snic int) TestbedConfig {
	if host > 0 {
		c.HostCores = host
	}
	if snic > 0 {
		c.SNICCores = snic
	}
	return c
}

// setPower does a run's power bookkeeping: which SNIC pools are live,
// which cores poll, and whether traffic crosses into host memory. host,
// snic and engine say which resources serve; poll says whether their
// stack polls, and the staging cores that feed an engine always do.
func (tb *Testbed) setPower(host, snic, engine, poll bool) {
	serve, staging, share := 0.0, 0.0, 0.0
	if snic {
		serve = 1
	}
	if engine {
		staging = 1
	}
	tb.ActivateSNICPools(serve, staging)
	if host {
		tb.SetPolling(HostCPU, poll)
		share = 1
	}
	if snic {
		tb.SetPolling(SNICCPU, poll)
	}
	if engine {
		tb.SetPolling(SNICCPU, true)
	}
	tb.SetHostTrafficShare(share)
}

// engineQueueLen reads an engine's queue depth. Every engine exposes
// one, the PKA via its command-count register delta, so a spill
// watermark sees backlog on all three fixed-function paths.
func (tb *Testbed) engineQueueLen(e EngineKind) int {
	switch e {
	case EngineREM:
		return tb.REM.QueueLen()
	case EngineDeflate:
		return tb.Deflate.QueueLen()
	case EnginePKABulk, EnginePKAOp:
		return tb.PKA.QueueLen()
	}
	return 0
}

// backlog is an engine path's pending work as a spill watermark sees
// it: tasks waiting for a staging core plus the engine's queued
// batches, each counted as 16 tasks.
//
//snicvet:hotpath
func (tb *Testbed) backlog(e EngineKind) int {
	return tb.StagingPool.QueueLen() + tb.engineQueueLen(e)*16
}

// stagingCycles is a staging core's cost to stage one task of size
// bytes into an engine, on top of rx cycles of receive work.
//
//snicvet:hotpath
func stagingCycles(rx float64, size int) float64 {
	return rx + accel.StagingCyclesPerTask + accel.StagingCyclesPerByte*float64(size)
}

// engineUtilization reads an engine's utilization.
func (tb *Testbed) engineUtilization(e EngineKind) float64 {
	switch e {
	case EngineREM:
		return tb.REM.Utilization()
	case EngineDeflate:
		return tb.Deflate.Utilization()
	case EnginePKABulk, EnginePKAOp:
		return tb.PKA.Utilization()
	}
	return 0
}

// engineRateBits returns an engine's rate with a batching margin; a
// per-operation engine moves opBytes per operation.
func (tb *Testbed) engineRateBits(e EngineKind, algo accel.PKAAlgo, opBytes int) float64 {
	switch e {
	case EngineREM:
		return tb.REM.RateBits * 0.75
	case EngineDeflate:
		return tb.Deflate.RateBits * 0.9
	case EnginePKABulk:
		return tb.PKA.BulkRateBits[algo] * 0.95
	case EnginePKAOp:
		return tb.PKA.OpRate[algo] * float64(opBytes) * 8
	}
	return 30e9
}
