package cpu

import (
	"fmt"

	"repro/internal/sim"
)

// Pool is a set of CPU cores available to one execution platform. It wraps
// a sim.Station whose servers are cores; work is expressed in cycles and
// converted to time at the pool's operating frequency.
type Pool struct {
	Spec    *Spec
	station *sim.Station
	cores   int
	// throttle scales the operating frequency in (0,1]; fault injection
	// lowers it to model thermal or firmware-forced frequency drops (the
	// BlueField-2's Arm cores throttle hard under sustained load). 0 means
	// unset and is treated as 1.
	throttle float64
}

// NewPool returns a pool of n cores of the given spec. n must not exceed
// the spec's core count. The paper uses 8 host cores to match the SNIC.
func NewPool(eng *sim.Engine, spec *Spec, n int) *Pool {
	if n <= 0 || n > spec.Cores {
		panic(fmt.Sprintf("cpu: pool of %d cores out of range for %s", n, spec.Name))
	}
	return &Pool{Spec: spec, station: sim.NewStation(eng, n), cores: n}
}

// Cores returns the number of cores in the pool.
func (p *Pool) Cores() int { return p.cores }

// FreqHz returns the operating frequency for active work: BaseHz, scaled
// down by an active throttle, which stretches every subsequent service
// time.
func (p *Pool) FreqHz() float64 {
	if p.throttle > 0 {
		return p.Spec.BaseHz * p.throttle
	}
	return p.Spec.BaseHz
}

// SetThrottle caps the pool's frequency at f × BaseHz for work submitted
// from now on. f must be in (0,1]; 1 restores full frequency.
func (p *Pool) SetThrottle(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("cpu: throttle factor %v outside (0,1]", f))
	}
	p.throttle = f
}

// ServiceTime converts a cycle cost on this pool into a duration,
// accounting for the spec's relative IPC. Use ExecDuration to actually
// occupy a core.
func (p *Pool) ServiceTime(cycles float64) sim.Duration {
	if cycles < 0 {
		panic("cpu: negative cycle cost")
	}
	effective := cycles / p.Spec.IPC
	return sim.Cycles(effective, p.FreqHz())
}

// ExecDuration schedules a job with a pre-computed service time on the
// next free core and calls done when it retires. The caller draws any
// service-time jitter itself. It reports false if the job was shed at
// the queue limit (none by default). The job record is the station's
// pooled one, so a steady-state submission allocates nothing.
//
//snicvet:hotpath
func (p *Pool) ExecDuration(svc sim.Duration, done func(start, end sim.Time)) bool {
	return p.station.Exec(svc, done)
}

// SetQueueCapacity bounds the pool's run queue; zero means unbounded.
// Bounding it models NIC RX ring overrun shedding work before the cores.
func (p *Pool) SetQueueCapacity(n int) { p.station.Capacity = n }

// QueueCapacity returns the run-queue bound (zero = unbounded). The
// invariant checker reads it to register exact occupancy limits.
func (p *Pool) QueueCapacity() int { return p.station.Capacity }

// Instrument installs a telemetry observer bound to the pool's station.
// Observers are pure recorders (see sim.StationObserver).
func (p *Pool) Instrument(obs sim.StationObserver) {
	p.station.Observe(obs)
}

// Utilization returns mean busy fraction across cores.
func (p *Pool) Utilization() float64 { return p.station.Utilization() }

// QueueLen returns the number of jobs waiting for a core.
func (p *Pool) QueueLen() int { return p.station.QueueLen() }

// Busy returns the number of cores currently executing.
func (p *Pool) Busy() int { return p.station.Busy() }

// Completed returns the number of jobs retired.
func (p *Pool) Completed() uint64 { return p.station.Completed() }

// Dropped returns the number of jobs shed at the queue limit.
func (p *Pool) Dropped() uint64 { return p.station.Dropped() }
