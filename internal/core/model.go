package core

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The analytic service model: how stack and application cycles compose
// into a service time on a platform, and service times into a capacity.
// The request path draws its jittered service times from it, the
// capacity searches seed from it, the catalog solver inverts it and the
// advisor predicts with it. It keeps the request path's float evaluation
// order, so a config and its one-phase pipeline price a request bit for
// bit alike.

// meanReq is the request payload the model prices: size, or the
// whole-byte mean of the CTU mix.
func meanReq(size int, mixed bool) int {
	if mixed {
		return int(trace.CTUMixed().Mean())
	}
	return size
}

// appCycles is the phase's application cycles for an input of in
// bytes: (base + perByte·in)·factor + extra, in that order. A spilled
// engine phase prices its host software model at factor 1.
//
//snicvet:hotpath
func (ph *PhaseSpec) appCycles(in int, spilled bool) float64 {
	base, perByte, factor := ph.BaseCycles, ph.PerByteCycles, ph.CycleFactor
	if spilled {
		if ph.SpillBaseCycles > 0 || ph.SpillPerByteCycles > 0 {
			base, perByte = ph.SpillBaseCycles, ph.SpillPerByteCycles
		}
		factor = 1
	}
	if factor <= 0 {
		factor = 1
	}
	app := base + perByte*float64(in)
	app *= factor
	return app + ph.ExtraCycles
}

// stackCycles is the stack's share of a phase on a core of arch: the RX
// cycles of an in-byte request on the first phase, and the TX cycles of
// a resp-byte response on the last.
//
//snicvet:hotpath
func stackCycles(prof *netstack.Profile, first, last bool, in, resp int, arch cpu.Arch) float64 {
	cycles := 0.0
	if first {
		cycles = prof.RxCycles(arch, in)
	}
	if last {
		cycles += prof.TxCycles(arch, resp)
	}
	return cycles
}

// cpuTime is the time cycles take on a core of spec, stretched by the
// memory subsystem m's penalty for the given intensity and working set.
//
//snicvet:hotpath
func cpuTime(cycles float64, spec *cpu.Spec, m *mem.Spec, intensity float64, ws int64) sim.Duration {
	svc := sim.Cycles(cycles/spec.IPC, spec.BaseHz)
	//snicvet:ignore hotpath -- allocates only to format its panic on a memory intensity outside [0,1]
	return sim.Duration(float64(svc) * m.Penalty(intensity, ws, spec.L3Bytes))
}

// phaseTime is phase i's median service time for an input of in bytes
// on tb's cores: its stack and application cycles on the platform that
// runs it, a host core when the phase spilled.
//
//snicvet:hotpath
func phaseTime(tb *Testbed, prof *netstack.Profile, ps *PipelineSpec, i, in int, spilled bool) sim.Duration {
	ph := &ps.Phases[i]
	plat := ph.platform()
	if spilled {
		plat = HostCPU
	}
	spec := tb.SpecFor(plat)
	cycles := stackCycles(prof, i == 0, i == len(ps.Phases)-1, in, ps.RespSize, spec.Arch) + ph.appCycles(in, spilled)
	return cpuTime(cycles, spec, tb.MemFor(plat), ph.MemIntensity, ph.WorkingSet)
}

// stagingCycles is a staging core's cost to stage one task of size
// bytes into an engine, on top of rx cycles of receive work.
//
//snicvet:hotpath
func stagingCycles(rx float64, size int) float64 {
	return rx + accel.StagingCyclesPerTask + accel.StagingCyclesPerByte*float64(size)
}

// stageTime is a staging core's time to feed one in-byte task to an
// engine: the RX stack cycles when the engine phase comes first, the
// staging work, and 100 cycles to pick up the result.
//
//snicvet:hotpath
func stageTime(prof *netstack.Profile, spec *cpu.Spec, first bool, in int) sim.Duration {
	rx := 0.0
	if first {
		rx = prof.RxCycles(spec.Arch, in)
	}
	return sim.Cycles((stagingCycles(rx, in)+100)/spec.IPC, spec.BaseHz)
}

// armGap is how many times longer the same instructions take on a core
// of snic than on one of host: their frequency×IPC ratio.
//
//snicvet:hotpath
func armGap(host, snic *cpu.Spec) float64 {
	return (host.BaseHz * host.IPC) / (snic.BaseHz * snic.IPC)
}

// localOpTime is a local-mode operation's median time on a CPU
// platform: size bytes at the host's ISA-path rate, and on the SNIC CPU,
// which lacks the ISA path, the portable implementation SNICFactor×
// slower after the Arm gap.
//
//snicvet:hotpath
func localOpTime(tb *Testbed, cfg *Config, plat Platform, size int) sim.Duration {
	var base sim.Duration
	switch {
	case cfg.HostRateOps > 0:
		base = sim.Duration(float64(sim.Second) / cfg.HostRateOps)
	case cfg.HostRateBits > 0:
		base = sim.DurationOf(size, cfg.HostRateBits)
	default:
		//snicvet:ignore hotpath -- allocates only to format its panic on a config without a host rate
		panic(fmt.Sprintf("core: %s local mode needs a host rate", cfg.Name()))
	}
	if plat != HostCPU {
		base = sim.Duration(float64(base) * armGap(tb.HostSpec, tb.SNICSpec) * cfg.SNICFactor)
	}
	return base
}

// pipelineGbps is ps's analytic capacity in wire-payload Gb/s on tb
// behind a link of link Gb/s: the least of the wire and each phase's
// standalone capacity. Pool sharing between phases is ignored; a search
// seeded from it only needs its range to bracket the knee.
func pipelineGbps(tb *Testbed, link float64, ps *PipelineSpec) float64 {
	req := meanReq(ps.ReqSize, ps.Mixed)
	best := link * float64(req) / float64(req+nic.EthernetOverhead)
	prof := netstack.ByKind(ps.Stack)
	size := req
	for i := range ps.Phases {
		ph := &ps.Phases[i]
		var gbps float64
		if ph.Resource == ResEngine {
			engineBits := tb.engineRateBits(ph.Engine, ph.PKAAlgo, size)
			stage := stageTime(&prof, tb.SNICSpec, i == 0, size)
			stageBits := float64(tb.StagingPool.Cores()) / stage.Seconds() * float64(size) * 8
			gbps = math.Min(engineBits, stageBits) / 1e9
		} else {
			// Capacity in wire-payload terms: a phase serving shrunken
			// payloads still gates the same request stream.
			t := phaseTime(tb, &prof, ps, i, size, false)
			gbps = float64(tb.PoolFor(ph.platform()).Cores()) / t.Seconds() * float64(req) * 8 / 1e9
		}
		if gbps < best {
			best = gbps
		}
		size = ph.outSize(size)
	}
	return best
}

// configGbps is cfg's analytic capacity on plat in Gb/s: the wire for
// block I/O, the ISA-path or engine rate for local operations, and
// otherwise the capacity of the config's one-phase pipeline.
func configGbps(tb *Testbed, link float64, cfg *Config, plat Platform) float64 {
	switch cfg.Mode {
	case ModeStorage:
		// Block I/O saturates the wire with 64 KB transfers.
		return link * 65536 / (65536 + 44*nic.EthernetOverhead)
	case ModeLocal:
		if plat == SNICAccel {
			return tb.engineRateBits(cfg.Engine, cfg.PKAAlgo, cfg.LocalOpBytes) / 1e9
		}
		bits := cfg.HostRateBits
		if cfg.HostRateOps > 0 {
			bits = cfg.HostRateOps * float64(cfg.LocalOpBytes) * 8
		}
		if plat != HostCPU {
			bits = bits / armGap(tb.HostSpec, tb.SNICSpec) / cfg.SNICFactor
		}
		return bits / 1e9
	}
	return pipelineGbps(tb, link, configPipeline(cfg, plat))
}
