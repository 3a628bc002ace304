// Package obs is the virtual-time telemetry layer: request spans,
// sampled metrics, and deterministic trace export.
//
// A Recorder belongs to exactly one simulation run (one sim.Engine) and
// is driven synchronously from that run's event loop, so it needs no
// locking. Recorders are handed to a Collector when the run finishes;
// a Collector's recorders store spans only when a trace will be
// written, and it sorts and deduplicates at export time so output is
// byte-identical at any parallelism.
//
// Everything here is a pure observer: recording never mutates model
// state, never draws from model RNG streams, and never schedules model
// events, so enabling telemetry cannot change simulation results.
package obs

import (
	"fmt"

	"repro/internal/sim"
)

// TrackRequests is the one span track: it carries request lifecycles.
// One root span is opened per simulated request; stage children link to
// it. Its Chrome-trace tid is 1.
const TrackRequests = "requests"

// SpanLabel is an interned span name: its index in the recorder's name
// table. Intern resolves a name once, when a run is wired, so recording
// a span under its label hashes no string. A label is valid only on the
// recorder that interned it.
type SpanLabel uint16

// SpanID identifies a span within one Recorder. IDs are 1-based; zero
// means "no span" and is safe to pass to every Recorder method.
type SpanID uint32

// span is the compact in-memory form. The name is interned
// per-recorder; end is open (span still in flight) while < start.
type span struct {
	start, end sim.Time
	parent     SpanID
	name       SpanLabel
}

// openEnd marks a span whose Close was never reached (e.g. the request
// was shed at a full queue). Exporters render these with zero duration
// and manifests count them.
const openEnd = sim.Time(-1)

// Spans are stored in fixed-size chunks rather than one growing slice.
// A run records millions of spans, and slice growth re-copies the whole
// backing array each time it doubles — profiled at ~25% of a
// telemetry-enabled run before chunking. Chunks never move once
// allocated. A recorder whose spans no trace will read stores none and
// takes no chunk.
const (
	spanChunkShift = 12 // 4096 spans (96 KiB) per chunk
	spanChunkSize  = 1 << spanChunkShift
	spanChunkMask  = spanChunkSize - 1
)

// Recorder captures one run's telemetry.
type Recorder struct {
	runID uint64
	label string

	names   []string
	nameIdx map[string]SpanLabel
	// store marks a recorder that keeps its spans in chunks: a
	// standalone one, or one its collector made for a trace. Any other
	// recorder only counts them.
	store  bool
	chunks []*[spanChunkSize]span
	// nspans, nroots and nopen count spans, request roots and spans
	// still open as they are recorded, so manifests read them without a
	// scan, whether or not the spans themselves are stored.
	nspans, nroots, nopen int

	// reg is the run's metric registry: counters (Count/SetCount) and
	// sampled gauges (Gauge/AddSeries) both live here, in registration
	// order; the Recorder is the span layer over it.
	reg *Registry

	// resources holds each bound resource's observer and counters by
	// name, for binding and manifests; resourceKeys in bind order.
	resources    map[string]*Resource
	resourceKeys []string
}

// NewRecorder returns a recorder for one run that stores its spans.
// runID must be unique and deterministic across processes (see
// DeriveRunID); label is the human-readable run description used in
// exports.
func NewRecorder(runID uint64, label string) *Recorder {
	return &Recorder{
		runID:     runID,
		label:     label,
		store:     true,
		nameIdx:   make(map[string]SpanLabel),
		reg:       NewRegistry(),
		resources: make(map[string]*Resource),
	}
}

// RunID returns the recorder's deterministic run identifier.
func (r *Recorder) RunID() uint64 {
	if r == nil {
		return 0
	}
	return r.runID
}

// Label returns the recorder's run description.
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Intern resolves a span name to its label, adding it to the
// recorder's name table on first use. Run wiring interns its labels
// once and records under them per event. Nil-safe: a nil recorder
// returns 0, and records nothing under any label.
func (r *Recorder) Intern(name string) SpanLabel {
	if r == nil {
		return 0
	}
	if l, ok := r.nameIdx[name]; ok {
		return l
	}
	l := SpanLabel(len(r.names))
	r.names = append(r.names, name)
	r.nameIdx[name] = l
	return l
}

// slot returns the next span's slot, allocating a fresh chunk when the
// current one fills.
//
//snicvet:hotpath
func (r *Recorder) slot() *span {
	if r.nspans>>spanChunkShift == len(r.chunks) {
		//snicvet:ignore hotpath -- chunk boundary, amortized over 4096 spans
		r.chunks = append(r.chunks, new([spanChunkSize]span))
	}
	return &r.chunks[r.nspans>>spanChunkShift][r.nspans&spanChunkMask]
}

// spanAt returns the i-th recorded span (0-based). Callers bound i by
// nspans and check store.
//
//snicvet:hotpath
func (r *Recorder) spanAt(i int) *span {
	return &r.chunks[i>>spanChunkShift][i&spanChunkMask]
}

// record counts one span and stores it if the recorder stores spans:
// the one recording path. Parentless spans are request roots; spans
// ending at openEnd are open.
//
//snicvet:hotpath
func (r *Recorder) record(l SpanLabel, parent SpanID, start, end sim.Time) SpanID {
	if r == nil {
		return 0
	}
	if parent == 0 {
		r.nroots++
	}
	if end == openEnd {
		r.nopen++
	}
	if r.store {
		*r.slot() = span{start: start, end: end, parent: parent, name: l}
	}
	r.nspans++
	return SpanID(r.nspans)
}

// Begin opens a span under label l at start, linked to parent (0 for
// none), and returns its ID. Nil-safe: a nil recorder returns 0.
//
//snicvet:hotpath
func (r *Recorder) Begin(l SpanLabel, parent SpanID, start sim.Time) SpanID {
	return r.record(l, parent, start, openEnd)
}

// Record records a complete span under label l, linked to parent (0
// for none). Nil-safe.
//
//snicvet:hotpath
func (r *Recorder) Record(l SpanLabel, parent SpanID, start, end sim.Time) SpanID {
	return r.record(l, parent, start, end)
}

// Open starts a root span named name at start and returns its ID:
// Begin under the name's label, interned on the way. track must be
// TrackRequests, the one track; any other panics. Nil-safe: a nil
// recorder returns 0.
func (r *Recorder) Open(track, name string, start sim.Time) SpanID {
	if track != TrackRequests {
		panic(fmt.Sprintf("obs: span track %q: the only track is %q", track, TrackRequests))
	}
	return r.Begin(r.Intern(name), 0, start)
}

// Close ends an open span. Closing span 0 is a no-op. Each span is
// closed at most once: a recorder that stores its spans ignores a
// second Close, but one that only counts them cannot tell and would
// count the span closed twice. Nil-safe.
//
//snicvet:hotpath
func (r *Recorder) Close(id SpanID, end sim.Time) {
	if r == nil || id == 0 || int(id) > r.nspans || end == openEnd {
		return
	}
	if r.store {
		sp := r.spanAt(int(id) - 1)
		if sp.end != openEnd {
			return
		}
		sp.end = end
	}
	r.nopen--
}

// SpanView is the read-only view of one stored span: its timing and
// link, with the interned name resolved back to its string. Open marks
// a span whose Close was never reached; its End is meaningless.
type SpanView struct {
	Name       string
	Parent     SpanID
	Start, End sim.Time
	Open       bool
}

// View returns stored span id (1-based, in record order). Nothing is
// copied or allocated; Name is the interned string. ok is false for
// span 0, for an ID past the last span, and on a recorder that stores
// no spans. Nil-safe.
func (r *Recorder) View(id SpanID) (s SpanView, ok bool) {
	if r == nil || !r.store || id == 0 || int(id) > r.nspans {
		return SpanView{}, false
	}
	sp := r.spanAt(int(id) - 1)
	return SpanView{Name: r.names[sp.name], Parent: sp.parent, Start: sp.start, End: sp.end,
		Open: sp.end == openEnd}, true
}

// SpanCount returns the number of spans recorded so far.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	return r.nspans
}

// RootCount returns the number of parentless spans — by construction,
// one per simulated request.
func (r *Recorder) RootCount() int {
	if r == nil {
		return 0
	}
	return r.nroots
}

// OpenCount returns spans never closed (requests shed mid-flight).
func (r *Recorder) OpenCount() int {
	if r == nil {
		return 0
	}
	return r.nopen
}

// Count adds delta to a named counter, registering it on first use.
// Nil-safe.
//
//snicvet:hotpath
func (r *Recorder) Count(name string, delta float64) {
	if r == nil {
		return
	}
	r.reg.Counter(name, "").Add(delta)
}

// SetCount sets a named counter to an absolute value, registering it on
// first use. Nil-safe.
//
//snicvet:hotpath
func (r *Recorder) SetCount(name string, v float64) {
	if r == nil {
		return
	}
	r.reg.Counter(name, "").Set(v)
}

// Resource is the recorder bound to one named station, batch engine or
// link. It counts the resource's observer callbacks for the run's
// manifest. Recorder.Resource binds it when a run is wired, so a
// callback reaches its counters without a lookup. It implements
// sim.StationObserver, sim.LinkObserver and sim.BatchObserver.
type Resource struct {
	queued, started, finished, dropped uint64
	frames, bytes, lostFrames          uint64
	batches, batchTasks                uint64
	peakQueue                          int
}

// Resource returns the recorder's observer bound to the named resource,
// creating its counters on first bind. Binding a name twice returns the
// same observer, so a batch engine's station and its batch assembly
// count into one resource. Call it when a run is wired, not per event.
// A nil recorder returns nil, which must not be installed as an
// observer: a typed nil in an interface defeats the resources' nil
// check.
func (r *Recorder) Resource(name string) *Resource {
	if r == nil {
		return nil
	}
	rs, ok := r.resources[name]
	if !ok {
		rs = &Resource{}
		r.resources[name] = rs
		r.resourceKeys = append(r.resourceKeys, name)
	}
	return rs
}

// JobQueued implements sim.StationObserver.
//
//snicvet:hotpath
func (rs *Resource) JobQueued(_ sim.Time, queueLen int) {
	rs.queued++
	if queueLen > rs.peakQueue {
		rs.peakQueue = queueLen
	}
}

// JobStarted implements sim.StationObserver.
//
//snicvet:hotpath
func (rs *Resource) JobStarted(sim.Time, sim.Duration) { rs.started++ }

// JobFinished implements sim.StationObserver.
//
//snicvet:hotpath
func (rs *Resource) JobFinished(sim.Time, sim.Time) { rs.finished++ }

// JobDropped implements sim.StationObserver.
//
//snicvet:hotpath
func (rs *Resource) JobDropped(sim.Time) { rs.dropped++ }

// FrameSent implements sim.LinkObserver.
//
//snicvet:hotpath
func (rs *Resource) FrameSent(size int, _, _ sim.Time, lost bool) {
	rs.frames++
	rs.bytes += uint64(size)
	if lost {
		rs.lostFrames++
	}
}

// BatchFlushed implements sim.BatchObserver.
//
//snicvet:hotpath
func (rs *Resource) BatchFlushed(tasks int, _ sim.Duration, _ sim.Time) {
	rs.batches++
	rs.batchTasks += uint64(tasks)
}
