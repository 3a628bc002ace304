package obs

import (
	"sort"
	"sync"

	"repro/internal/sim"
)

// DeriveRunID maps a run's memoization key to a stable 64-bit ID by
// hashing the key (FNV-1a) and drawing one value from the simulator's
// seeded RNG stream type. The ID is a pure function of the key, so two
// workers racing the same run produce the same ID and the Collector can
// deduplicate them.
func DeriveRunID(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return sim.NewRNG(h).Uint64()
}

// Collector accumulates finished Recorders across concurrent runs and
// exports them deterministically. The zero of *Collector (nil) is the
// "telemetry off" state: NewRecorder on a nil Collector returns a nil
// Recorder, and every Recorder method is nil-safe.
type Collector struct {
	mu    sync.Mutex
	trace bool
	byID  map[uint64]*Recorder
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byID: make(map[uint64]*Recorder)}
}

// EnableTrace makes the recorders the collector hands out from then on
// store their spans for WriteTrace. Without it a recorder counts spans,
// request roots and open spans for manifests and stores none, and
// WriteTrace returns ErrSpansDropped. Call it before NewRecorder for
// every run the trace should show, not only before Attach.
func (c *Collector) EnableTrace() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.trace = true
	c.mu.Unlock()
}

// NewRecorder returns a recorder for the run identified by key, or nil
// when the collector itself is nil (telemetry disabled). The recorder
// stores its spans only if EnableTrace came first.
func (c *Collector) NewRecorder(runID uint64, label string) *Recorder {
	if c == nil {
		return nil
	}
	r := NewRecorder(runID, label)
	c.mu.Lock()
	r.store = c.trace
	c.mu.Unlock()
	return r
}

// Attach hands a finished recorder to the collector, which drops its
// gauges' sampling closures: the run keeps what its exports read and
// none of the model state the closures read. Duplicate run IDs (two
// workers raced the same memoized run; both simulated identical event
// sequences) keep the first attached copy; the duplicate drops its
// spans to the garbage collector and keeps its span, request and
// open-span counts, so View finds no span in it from then on. Nil-safe
// on both sides.
func (c *Collector) Attach(r *Recorder) {
	if c == nil || r == nil {
		return
	}
	r.reg.release()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byID[r.runID]; dup {
		r.chunks, r.store = nil, false
		return
	}
	c.byID[r.runID] = r
}

// spansKept returns ErrSpansDropped unless the collector keeps spans
// for a trace and every attached run stored its own.
func (c *Collector) spansKept() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.trace {
		return ErrSpansDropped
	}
	for _, r := range c.byID {
		if !r.store {
			return ErrSpansDropped
		}
	}
	return nil
}

// Runs returns the attached recorders sorted by (label, runID) — the
// deterministic export order, independent of attach order and hence of
// worker parallelism.
func (c *Collector) Runs() []*Recorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]*Recorder, 0, len(c.byID))
	for _, r := range c.byID {
		out = append(out, r)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].label != out[j].label {
			return out[i].label < out[j].label
		}
		return out[i].runID < out[j].runID
	})
	return out
}

// Counter is one named counter value in a manifest.
type Counter struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// RunManifest summarizes one run's telemetry for JSON export.
type RunManifest struct {
	RunID     uint64    `json:"run_id"`
	Label     string    `json:"label"`
	Requests  int       `json:"requests"`
	Spans     int       `json:"spans"`
	OpenSpans int       `json:"open_spans"`
	Series    int       `json:"series"`
	Samples   int       `json:"samples"`
	Counters  []Counter `json:"counters,omitempty"`
}

// Manifest builds the manifest for one recorder. Resource aggregates
// appear as derived counters (name-sorted after the explicit ones).
func (r *Recorder) Manifest() RunManifest {
	m := RunManifest{
		RunID:     r.RunID(),
		Label:     r.Label(),
		Requests:  r.RootCount(),
		Spans:     r.SpanCount(),
		OpenSpans: r.OpenCount(),
		Series:    len(r.Series()),
		Samples:   r.SampleCount(),
	}
	if r == nil {
		return m
	}
	r.reg.EachCounter(func(name string, c *CounterMetric) {
		m.Counters = append(m.Counters, Counter{Name: name, Value: c.Value()})
	})
	keys := append([]string(nil), r.resourceKeys...)
	sort.Strings(keys)
	for _, k := range keys {
		rs := r.resources[k]
		add := func(suffix string, v uint64) {
			if v != 0 {
				m.Counters = append(m.Counters, Counter{Name: k + "." + suffix, Value: float64(v)})
			}
		}
		add("queued", rs.queued)
		add("started", rs.started)
		add("finished", rs.finished)
		add("dropped", rs.dropped)
		add("peak_queue", uint64(rs.peakQueue))
		add("frames", rs.frames)
		add("bytes", rs.bytes)
		add("lost_frames", rs.lostFrames)
		add("batches", rs.batches)
		add("batch_tasks", rs.batchTasks)
	}
	return m
}

// Manifests returns one manifest per run, in export order.
func (c *Collector) Manifests() []RunManifest {
	runs := c.Runs()
	out := make([]RunManifest, len(runs))
	for i, r := range runs {
		out[i] = r.Manifest()
	}
	return out
}
