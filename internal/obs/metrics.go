package obs

import (
	"repro/internal/sim"
)

// DefaultSamplePeriod is the gauge cadence when a registration passes
// period 0: 1 ms of simulated time.
const DefaultSamplePeriod = sim.Millisecond

// Series is one sampled metric: (time, value) pairs at a nominal
// period. Sensor traces imported from the power model reuse the same
// shape, so exporters treat emulated IPMI/Yocto-Watt readings and
// simulator gauges uniformly. The gauges one sampler polls at one
// period share one Times slice: treat it as read-only.
type Series struct {
	Name   string
	Unit   string
	Period sim.Duration
	Times  []sim.Time
	Values []float64
}

// Gauge registers a sampled metric in the run's registry, before
// StartSampler or it panics. fn is polled on the virtual-time sampler
// at the given period (0 means DefaultSamplePeriod), must be a pure
// read of model state, and is dropped, samples kept, when
// Collector.Attach takes the finished run. Series names are unique per
// run. Nil-safe.
func (r *Recorder) Gauge(name, unit string, period sim.Duration, fn func() float64) {
	if r == nil {
		return
	}
	if fn == nil {
		panic("obs: nil gauge")
	}
	r.reg.Gauge(name, unit, period, fn)
}

// AddSeries attaches a pre-sampled series (e.g. a power.Sensor trace
// copied at end of run) as a registry gauge with no sampling closure.
// Times and values are copied. Nil-safe.
func (r *Recorder) AddSeries(name, unit string, period sim.Duration, times []sim.Time, values []float64) {
	if r == nil {
		return
	}
	if len(times) != len(values) {
		panic("obs: series length mismatch")
	}
	s := r.reg.Gauge(name, unit, period, nil).Series()
	s.Times = append(s.Times, times...)
	s.Values = append(s.Values, values...)
}

// Series returns the recorded series: the registry's gauges, in
// registration order.
func (r *Recorder) Series() []*Series {
	if r == nil {
		return nil
	}
	return r.reg.series()
}

// SampleCount returns the total number of samples across all series.
func (r *Recorder) SampleCount() int {
	n := 0
	for _, s := range r.Series() {
		n += len(s.Times)
	}
	return n
}

// StartSampler begins polling registered gauges on eng's virtual-time
// tickers — see Registry.StartSampler, which this delegates to.
// Nil-safe.
func (r *Recorder) StartSampler(eng *sim.Engine) {
	if r == nil {
		return
	}
	r.reg.StartSampler(eng)
}
