// Package power models the energy side of the paper: a component-level
// power model for the server and SNIC, and the two measurement
// instruments of §3.2 — the BMC/IPMI (DCMI) system sensor (1 Hz, ±1 W)
// and the custom Yocto-Watt PCIe-riser rig (10 Hz, ±2 mW) that isolates
// the SNIC's draw from the system-wide number.
//
// The calibration anchors come straight from the paper's Fig. 6
// discussion: 252 W server idle, 29 W SNIC idle, up to 150.6 W server
// active delta and up to 5.4 W SNIC active delta. NewTestbed splits
// them across components: the idle 252 W into 140 W rest of server,
// 58 W host CPU, 25 W DRAM and the SNIC's 29 W; the active 150.6 W into
// 105 W CPU, 15 W DRAM, 20.6 W fans and VRMs and 10 W I/O traffic; the
// SNIC's 5.4 W into 3.4 W Arm cores and 2.0 W engines.
package power

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Watts is instantaneous power.
type Watts float64

// Paper §4 anchor constants.
const (
	// ServerIdleW is the system-wide idle draw (BMC reading, includes
	// the SNIC's idle draw because the SNIC is a PCIe subsystem).
	ServerIdleW Watts = 252
	// SNICIdleW is the SNIC's idle draw on the Yocto-Watt rig.
	SNICIdleW Watts = 29
	// ServerMaxActiveW is the largest active delta observed on the
	// server across the benchmark suite.
	ServerMaxActiveW Watts = 150.6
	// SNICMaxActiveW is the largest active delta observed on the SNIC.
	SNICMaxActiveW Watts = 5.4
)

// Component reports its instantaneous draw; the Model sums components and
// the sensors sample the sums.
type Component interface {
	Name() string
	Power() Watts
}

// Fixed is a constant-draw component (motherboard, fans baseline, PSU
// overhead, idle DIMMs, storage).
type Fixed struct {
	Label string
	W     Watts
}

// Name implements Component.
func (f Fixed) Name() string { return f.Label }

// Power implements Component.
func (f Fixed) Power() Watts { return f.W }

// UtilizationSource exposes an instantaneous busy fraction in [0,1];
// cpu.Pool, accel engines, and links all satisfy it via adapters.
type UtilizationSource func() float64

// Linear is a component whose draw scales linearly between an idle and a
// maximum value with a utilization signal: CPU packages, DRAM under
// bandwidth load, accelerator engines.
type Linear struct {
	Label      string
	IdleW      Watts
	MaxActiveW Watts // added on top of IdleW at 100% utilization
	Util       UtilizationSource
}

// Name implements Component.
func (l Linear) Name() string { return l.Label }

// Power implements Component.
func (l Linear) Power() Watts {
	u := l.Util()
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return l.IdleW + Watts(u)*l.MaxActiveW
}

// Model is a named set of components whose sum is one measurement domain
// (the whole server for the BMC; the SNIC card for the Yocto-Watt rig).
type Model struct {
	Label      string
	components []Component
}

// NewModel returns an empty model.
func NewModel(label string) *Model { return &Model{Label: label} }

// Add registers a component and returns the model for chaining.
func (m *Model) Add(c Component) *Model {
	if c == nil {
		panic("power: adding nil component")
	}
	m.components = append(m.components, c)
	return m
}

// Power returns the instantaneous sum.
func (m *Model) Power() Watts {
	var sum Watts
	for _, c := range m.components {
		sum += c.Power()
	}
	return sum
}

// Sensor samples a power source periodically into a time series, with the
// instrument's quantization applied — the fidelity difference between the
// BMC and the Yocto-Watt rig (500× resolution, 10× rate) is part of the
// paper's methodology story.
type Sensor struct {
	Label   string
	Period  sim.Duration
	Quantum Watts // readings are rounded to this granularity
	Source  func() Watts
	Trace   stats.TimeSeries
	eng     *sim.Engine
	running bool
	// dropUntil marks a sensor outage: ticks before this instant record
	// nothing (the last good sample is effectively held by consumers, as a
	// stale BMC reading would be). Missed samples are counted.
	dropUntil sim.Time
	missed    uint64
}

// NewBMCSensor returns the IPMI/DCMI instrument: 1 Hz, ±1 W.
func NewBMCSensor(eng *sim.Engine, src func() Watts) *Sensor {
	return &Sensor{Label: "BMC/DCMI", Period: sim.Second, Quantum: 1, Source: src, eng: eng}
}

// NewYoctoWattSensor returns the PCIe-riser instrument: 10 Hz, ±2 mW.
func NewYoctoWattSensor(eng *sim.Engine, src func() Watts) *Sensor {
	return &Sensor{Label: "Yocto-Watt", Period: 100 * sim.Millisecond, Quantum: 0.002, Source: src, eng: eng}
}

// Start begins periodic sampling until stop time.
func (s *Sensor) Start(until sim.Time) {
	if s.running {
		panic("power: sensor already started")
	}
	s.running = true
	var tick func()
	tick = func() {
		if s.eng.Now() > until {
			return
		}
		if s.eng.Now() < s.dropUntil {
			s.missed++
		} else {
			s.Trace.Add(s.eng.Now(), float64(s.quantize(s.Source())))
		}
		s.eng.After(s.Period, tick)
	}
	s.eng.After(s.Period, tick)
}

// DropUntil takes the sensor offline until t: ticks in the window record
// nothing. BMC firmware hiccups and I2C bus contention do exactly this on
// real hardware; experiments that integrate energy from the trace must
// tolerate the gap.
func (s *Sensor) DropUntil(t sim.Time) { s.dropUntil = t }

// Reading returns what the instrument would report if polled right now:
// the source value with the instrument's quantization applied (and
// nothing else — a dropout only suppresses the periodic trace, an
// explicit poll still reads the rail). Telemetry gauges use this so
// exported power series carry instrument fidelity, not model floats.
func (s *Sensor) Reading() Watts { return s.quantize(s.Source()) }

// MissedSamples returns how many ticks fell inside dropout windows.
func (s *Sensor) MissedSamples() uint64 { return s.missed }

func (s *Sensor) quantize(w Watts) Watts {
	if s.Quantum <= 0 {
		return w
	}
	steps := float64(w) / float64(s.Quantum)
	return Watts(float64(int64(steps+0.5))) * s.Quantum
}

// Average returns the time-weighted mean of the trace.
func (s *Sensor) Average() Watts { return Watts(s.Trace.TimeWeightedMean()) }

// Peak returns the largest sample.
func (s *Sensor) Peak() Watts { return Watts(s.Trace.Max()) }

// EnergyKWh converts an average draw sustained over a duration into
// kilowatt-hours — the unit fleet-level energy rollups and electricity
// bills are quoted in.
func EnergyKWh(avg Watts, d sim.Duration) float64 {
	return float64(avg) * d.Seconds() / 3600 / 1000
}

func (s *Sensor) String() string {
	return fmt.Sprintf("%s: %d samples, avg %.1f W, peak %.1f W",
		s.Label, s.Trace.Len(), float64(s.Average()), float64(s.Peak()))
}
