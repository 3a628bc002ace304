package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// Registry is the typed metric substrate of the telemetry layer: named
// counters, sampled gauges and histograms registered per component.
// A Registry belongs to one owner (a Recorder's run, or a Runner's
// self-profile) and is driven from one goroutine at a time — callers
// that share a Registry across workers serialize access themselves,
// exactly as the Collector does for Recorders.
//
// Everything is deterministic: registration order is preserved for
// insertion-ordered export (manifest counters, series), snapshots are
// name-sorted for order-independent export (profiles), and no
// wall-clock or map iteration order ever reaches an exporter. A nil
// *Registry is the "metrics off" state: every method no-ops and every
// registration returns a nil handle whose methods also no-op, mirroring
// the nil-Recorder contract.
type Registry struct {
	metrics map[string]*metricEntry
	order   []string // registration order
}

// MetricKind discriminates the three metric types.
type MetricKind int

const (
	// KindCounter is a monotonic (or set-once) accumulated value.
	KindCounter MetricKind = iota
	// KindGauge is a sampled instantaneous value feeding a Series.
	KindGauge
	// KindHistogram is a distribution over observed values.
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindMismatchError reports a name registered under two different
// metric kinds.
type KindMismatchError struct {
	Name       string
	Have, Want MetricKind
}

func (e *KindMismatchError) Error() string {
	return fmt.Sprintf("obs: metric %q is a %v, not a %v", e.Name, e.Have, e.Want)
}

// metricEntry is one registered metric.
type metricEntry struct {
	kind    MetricKind
	counter *CounterMetric
	gauge   *GaugeMetric
	hist    *HistogramMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metricEntry)}
}

func (r *Registry) lookup(name string, kind MetricKind) *metricEntry {
	e, ok := r.metrics[name]
	if !ok {
		return nil
	}
	if e.kind != kind {
		panic(&KindMismatchError{Name: name, Have: e.kind, Want: kind})
	}
	return e
}

func (r *Registry) insert(name string, e *metricEntry) {
	r.metrics[name] = e
	r.order = append(r.order, name)
}

// ---- typed handles ----

// CounterMetric accumulates a named value. The zero/nil handle no-ops.
type CounterMetric struct {
	unit string
	v    float64
}

// Add accumulates delta. Nil-safe.
func (c *CounterMetric) Add(delta float64) {
	if c != nil {
		c.v += delta
	}
}

// Set overwrites the accumulated value (end-of-run absolute counters).
// Nil-safe.
func (c *CounterMetric) Set(v float64) {
	if c != nil {
		c.v = v
	}
}

// Value returns the accumulated value.
func (c *CounterMetric) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// GaugeMetric is a sampled metric: a sampling closure polled on the
// virtual-time ticker, feeding a Series. A pre-sampled gauge (imported
// sensor trace) has no closure and is never polled.
type GaugeMetric struct {
	series *Series
	fn     func() float64
}

// Series returns the gauge's backing series.
func (g *GaugeMetric) Series() *Series {
	if g == nil {
		return nil
	}
	return g.series
}

// Last returns the most recent sample, or 0 before the first.
func (g *GaugeMetric) Last() float64 {
	if g == nil || len(g.series.Values) == 0 {
		return 0
	}
	return g.series.Values[len(g.series.Values)-1]
}

// HistogramMetric accumulates a distribution's count, sum and extrema.
type HistogramMetric struct {
	unit     string
	count    uint64
	sum      float64
	min, max float64
}

// Observe records one value. Nil-safe.
func (h *HistogramMetric) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// ---- registration ----

// Counter registers (or retrieves) a counter. Registering an existing
// name under a different kind panics: that is a wiring bug, not a
// runtime condition. Nil-safe: a nil registry returns a nil handle.
func (r *Registry) Counter(name, unit string) *CounterMetric {
	if r == nil {
		return nil
	}
	if e := r.lookup(name, KindCounter); e != nil {
		return e.counter
	}
	c := &CounterMetric{unit: unit}
	r.insert(name, &metricEntry{kind: KindCounter, counter: c})
	return c
}

// Gauge registers a sampled gauge. fn is polled on the virtual-time
// sampler at period (0 means DefaultSamplePeriod) and must be a pure
// read of model state; nil fn registers a pre-sampled gauge whose
// series the caller fills (imported sensor traces). Nil-safe.
func (r *Registry) Gauge(name, unit string, period sim.Duration, fn func() float64) *GaugeMetric {
	if r == nil {
		return nil
	}
	if e := r.lookup(name, KindGauge); e != nil {
		return e.gauge
	}
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	g := &GaugeMetric{series: &Series{Name: name, Unit: unit, Period: period}, fn: fn}
	r.insert(name, &metricEntry{kind: KindGauge, gauge: g})
	return g
}

// Histogram registers (or retrieves) a histogram. Nil-safe.
func (r *Registry) Histogram(name, unit string) *HistogramMetric {
	if r == nil {
		return nil
	}
	if e := r.lookup(name, KindHistogram); e != nil {
		return e.hist
	}
	h := &HistogramMetric{unit: unit}
	r.insert(name, &metricEntry{kind: KindHistogram, hist: h})
	return h
}

// ---- sampling ----

// StartSampler begins polling registered gauge closures on eng's
// virtual-time tickers. Gauges sharing a period share one ticker, every
// gauge is sampled once immediately (the t=0 baseline), and sampling
// stops by itself when the model drains (see sim.Engine.Ticker).
// Nil-safe.
func (r *Registry) StartSampler(eng *sim.Engine) {
	if r == nil {
		return
	}
	byPeriod := make(map[sim.Duration][]*GaugeMetric)
	var periods []sim.Duration
	for _, name := range r.order {
		e := r.metrics[name]
		if e.kind != KindGauge || e.gauge.fn == nil {
			continue
		}
		p := e.gauge.series.Period
		if _, ok := byPeriod[p]; !ok {
			periods = append(periods, p)
		}
		byPeriod[p] = append(byPeriod[p], e.gauge)
	}
	for _, p := range periods {
		group := byPeriod[p]
		sample := func() {
			now := eng.Now()
			for _, g := range group {
				g.series.Times = append(g.series.Times, now)
				g.series.Values = append(g.series.Values, g.fn())
			}
		}
		sample()
		eng.Ticker(p, sample)
	}
}

// ---- export ----

// MetricValue is one metric's exported state: the scalar summary for
// counters and gauges, the aggregate for histograms.
type MetricValue struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Unit string `json:"unit,omitempty"`
	// Value is the counter total, the gauge's last sample, or the
	// histogram sum.
	Value float64 `json:"value"`
	// Count is histogram observations (also gauge sample count).
	Count uint64  `json:"count,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Snapshot returns every metric's current state, name-sorted — the
// deterministic export order, independent of registration order.
func (r *Registry) Snapshot() []MetricValue {
	if r == nil {
		return nil
	}
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	out := make([]MetricValue, 0, len(names))
	for _, name := range names {
		e := r.metrics[name]
		mv := MetricValue{Name: name, Kind: e.kind.String()}
		switch e.kind {
		case KindCounter:
			mv.Unit = e.counter.unit
			mv.Value = e.counter.v
		case KindGauge:
			mv.Unit = e.gauge.series.Unit
			mv.Value = e.gauge.Last()
			mv.Count = uint64(len(e.gauge.series.Times))
		case KindHistogram:
			mv.Unit = e.hist.unit
			mv.Value = e.hist.sum
			mv.Count = e.hist.count
			mv.Min = e.hist.min
			mv.Max = e.hist.max
		}
		out = append(out, mv)
	}
	return out
}

// EachCounter calls fn for every registered counter in registration
// order — the insertion-ordered export manifests use. Nil-safe.
func (r *Registry) EachCounter(fn func(name string, c *CounterMetric)) {
	if r == nil {
		return
	}
	for _, name := range r.order {
		if e := r.metrics[name]; e.kind == KindCounter {
			fn(name, e.counter)
		}
	}
}

// series returns every gauge's series in registration order — the order
// the exporters emit series in. Nil-safe.
func (r *Registry) series() []*Series {
	if r == nil {
		return nil
	}
	var out []*Series
	for _, name := range r.order {
		if e := r.metrics[name]; e.kind == KindGauge {
			out = append(out, e.gauge.series)
		}
	}
	return out
}

// WriteJSON writes the name-sorted snapshot as one JSON array, built
// with the same exact formatting rules as the other exporters (strconv
// shortest-float, no map order) so output is byte-identical across
// processes and parallelism.
func (r *Registry) WriteJSON(w io.Writer) error {
	x := newExportBuf(w)
	x.b = append(x.b, "[\n"...)
	snap := r.Snapshot()
	for i, mv := range snap {
		x.b = append(x.b, ` {"name":`...)
		x.b = appendJSONString(x.b, mv.Name)
		x.b = append(x.b, `,"kind":`...)
		x.b = appendJSONString(x.b, mv.Kind)
		if mv.Unit != "" {
			x.b = append(x.b, `,"unit":`...)
			x.b = appendJSONString(x.b, mv.Unit)
		}
		x.b = append(x.b, `,"value":`...)
		x.b = appendFloat(x.b, mv.Value)
		if mv.Count != 0 {
			x.b = append(x.b, `,"count":`...)
			x.b = strconv.AppendUint(x.b, mv.Count, 10)
		}
		if mv.Kind == KindHistogram.String() {
			x.b = append(x.b, `,"min":`...)
			x.b = appendFloat(x.b, mv.Min)
			x.b = append(x.b, `,"max":`...)
			x.b = appendFloat(x.b, mv.Max)
		}
		x.b = append(x.b, '}')
		if i < len(snap)-1 {
			x.b = append(x.b, ',')
		}
		x.b = append(x.b, '\n')
		if err := x.spill(); err != nil {
			return err
		}
	}
	x.b = append(x.b, "]\n"...)
	return x.flush()
}
