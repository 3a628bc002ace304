// Package pcie models the PCIe Gen4 ×16 interconnect between the host CPU
// and the BlueField-2 (paper Table 1, §2.1).
//
// The paper's framing of SNICs leans on prior work's point that
// "PCIe-attached accelerators [struggle to] efficiently execute
// latency-sensitive functions processing small microsecond-scale tasks
// ... due to long latency of the PCIe interconnect". This package is that
// latency: MMIO doorbells, DMA round trips, and the lanes' serialization
// bandwidth.
package pcie

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes a PCIe connection.
type Config struct {
	Name  string
	Gen   int
	Lanes int
	// MMIOWriteNs is the posted-write cost for a doorbell ring as seen by
	// the issuing CPU.
	MMIOWriteNs float64
	// RoundTripNs is the non-posted read / completion round-trip latency.
	RoundTripNs float64
}

// Gen4x16 returns the BlueField-2's host interface: PCIe 4.0 ×16.
// Usable payload bandwidth after 128b/130b and TLP overhead is ~25 GB/s
// per direction.
func Gen4x16() Config {
	return Config{
		Name:        "PCIe Gen4 x16",
		Gen:         4,
		Lanes:       16,
		MMIOWriteNs: 120,
		RoundTripNs: 900,
	}
}

// UsableBitsPerSec returns effective per-direction bandwidth in bits/s.
func (c Config) UsableBitsPerSec() float64 {
	perLaneGTps := map[int]float64{1: 2.5, 2: 5, 3: 8, 4: 16, 5: 32}[c.Gen]
	if perLaneGTps == 0 {
		panic(fmt.Sprintf("pcie: unknown generation %d", c.Gen))
	}
	raw := perLaneGTps * 1e9 * float64(c.Lanes)
	// 128b/130b line coding plus ~20% TLP/DLLP protocol overhead.
	return raw * (128.0 / 130.0) * 0.80
}

func (c Config) String() string {
	return fmt.Sprintf("%s (%.1f GB/s usable, %.0f ns RT)",
		c.Name, c.UsableBitsPerSec()/8e9, c.RoundTripNs)
}

// Bus is a live PCIe connection with independent upstream (device→host)
// and downstream (host→device) serialization resources.
type Bus struct {
	Config Config
	eng    *sim.Engine
	up     *sim.Link
	down   *sim.Link

	dmas      uint64
	doorbells uint64
}

// NewBus returns a bus using the given configuration.
func NewBus(eng *sim.Engine, cfg Config) *Bus {
	prop := sim.Duration(cfg.RoundTripNs / 2)
	bps := cfg.UsableBitsPerSec()
	return &Bus{
		Config: cfg,
		eng:    eng,
		up:     sim.NewLink(eng, bps, prop),
		down:   sim.NewLink(eng, bps, prop),
	}
}

// Direction selects a transfer direction.
type Direction int

const (
	// ToDevice moves data host → SNIC.
	ToDevice Direction = iota
	// ToHost moves data SNIC → host.
	ToHost
)

// DMA transfers size bytes in the given direction and calls done when the
// last byte lands. The descriptor fetch adds one round trip up front,
// which is why microsecond-scale tasks feel PCIe so acutely.
func (b *Bus) DMA(dir Direction, size int, done func()) {
	b.dmas++
	l := b.down
	if dir == ToHost {
		l = b.up
	}
	b.eng.After(sim.Duration(b.Config.RoundTripNs), func() {
		l.Send(size, done)
	})
}

// Doorbell models an MMIO posted write (e.g. ringing an accelerator's
// command-count register) and calls rung after the write is visible to
// the device.
func (b *Bus) Doorbell(rung func()) {
	b.doorbells++
	b.eng.After(sim.Duration(b.Config.MMIOWriteNs)+sim.Duration(b.Config.RoundTripNs/2), rung)
}

// Observe installs a telemetry observer bound to each direction: up on
// device→host, down on host→device.
func (b *Bus) Observe(up, down sim.LinkObserver) {
	b.up.Observe(up)
	b.down.Observe(down)
}

// UpBacklog returns the device→host serialization backlog.
func (b *Bus) UpBacklog() sim.Duration { return b.up.Backlog() }

// DownBacklog returns the host→device serialization backlog.
func (b *Bus) DownBacklog() sim.Duration { return b.down.Backlog() }

// DMACount returns the number of DMA transfers issued.
func (b *Bus) DMACount() uint64 { return b.dmas }

// DoorbellCount returns the number of doorbell writes issued.
func (b *Bus) DoorbellCount() uint64 { return b.doorbells }
