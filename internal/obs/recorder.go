// Package obs is the virtual-time telemetry layer: request spans,
// sampled metrics, and deterministic trace export.
//
// A Recorder belongs to exactly one simulation run (one sim.Engine) and
// is driven synchronously from that run's event loop, so it needs no
// locking. Recorders are handed to a Collector when the run finishes;
// the Collector keeps a run's spans only when a trace will be written,
// and sorts and deduplicates at export time so output is byte-identical
// at any parallelism.
//
// Everything here is a pure observer: recording never mutates model
// state, never draws from model RNG streams, and never schedules model
// events, so enabling telemetry cannot change simulation results.
package obs

import (
	"sync"

	"repro/internal/sim"
)

// TrackRequests is the span track that carries request lifecycles. One
// root span is opened per simulated request; stage children link to it.
const TrackRequests = "requests"

// SpanID identifies a span within one Recorder. IDs are 1-based; zero
// means "no span" and is safe to pass to every Recorder method.
type SpanID uint32

// span is the compact in-memory form. Track and name are interned
// per-recorder; end is open (span still in flight) while < start.
type span struct {
	start, end sim.Time
	parent     SpanID
	track      uint16
	name       uint16
}

// openEnd marks a span whose Close was never reached (e.g. the request
// was shed at a full queue). Exporters render these with zero duration
// and manifests count them.
const openEnd = sim.Time(-1)

// Spans are stored in fixed-size chunks rather than one growing slice.
// A run records millions of spans, and slice growth re-copies the whole
// backing array each time it doubles — profiled at ~25% of a
// telemetry-enabled run before chunking. Chunks never move once
// allocated, and recorders whose spans no trace will read (every run
// without EnableTrace, and deduplicated replays at -jN) hand their
// chunks back to a free list instead of the garbage collector.
const (
	spanChunkShift = 12 // 4096 spans (96 KiB) per chunk
	spanChunkSize  = 1 << spanChunkShift
	spanChunkMask  = spanChunkSize - 1
)

var spanChunkPool = sync.Pool{New: func() any { return new([spanChunkSize]span) }}

// resourceStats aggregates the observer callbacks per resource name.
type resourceStats struct {
	queued, started, finished, dropped uint64
	frames, bytes, lostFrames          uint64
	batches, batchTasks                uint64
	peakQueue                          int
}

// Recorder captures one run's telemetry.
type Recorder struct {
	runID uint64
	label string
	// Detail additionally records a span per station job and link frame
	// on per-resource tracks. Off by default: request spans plus gauges
	// explain saturation without the O(events) volume.
	Detail bool

	tracks   []string
	trackIdx map[string]uint16
	names    []string
	nameIdx  map[string]uint16
	chunks   []*[spanChunkSize]span
	// nspans, nroots and nopen count spans, request roots and spans
	// still open as they are recorded, so manifests read them without a
	// scan and they survive a drop of the spans themselves.
	nspans, nroots, nopen int
	// dropped marks a recorder whose span storage went back to the free
	// list (see releaseSpans): it records no further spans.
	dropped bool

	// reg is the run's metric registry: counters (Count/SetCount) and
	// sampled gauges (Gauge/AddSeries) both live here; the Recorder is
	// the span layer over it. series keeps the registration-order view
	// the exporters emit.
	reg    *Registry
	series []*Series

	resources    map[string]*resourceStats
	resourceKeys []string
}

// NewRecorder returns a recorder for one run. runID must be unique and
// deterministic across processes (see DeriveRunID); label is the
// human-readable run description used in exports.
func NewRecorder(runID uint64, label string) *Recorder {
	return &Recorder{
		runID:     runID,
		label:     label,
		trackIdx:  make(map[string]uint16),
		nameIdx:   make(map[string]uint16),
		reg:       NewRegistry(),
		resources: make(map[string]*resourceStats),
	}
}

// Metrics returns the run's metric registry, for callers that want the
// typed handles or strict name-based writes directly. Nil-safe: a nil
// recorder returns a nil registry, whose methods all no-op.
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
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

//snicvet:hotpath
func (r *Recorder) internTrack(track string) uint16 {
	if i, ok := r.trackIdx[track]; ok {
		return i
	}
	i := uint16(len(r.tracks))
	//snicvet:ignore hotpath -- first use of a track name; the interning table is tiny and stops growing
	r.tracks = append(r.tracks, track)
	r.trackIdx[track] = i
	return i
}

//snicvet:hotpath
func (r *Recorder) internName(name string) uint16 {
	if i, ok := r.nameIdx[name]; ok {
		return i
	}
	i := uint16(len(r.names))
	//snicvet:ignore hotpath -- first use of a span name; the interning table is tiny and stops growing
	r.names = append(r.names, name)
	r.nameIdx[name] = i
	return i
}

// alloc reserves the next span slot, pulling a fresh chunk from the
// free list when the current one fills. Slots are written in full by
// every caller, so recycled chunk contents never leak into exports.
//
//snicvet:hotpath
func (r *Recorder) alloc() *span {
	if r.nspans>>spanChunkShift == len(r.chunks) {
		//snicvet:ignore hotpath -- chunk boundary, amortized over 4096 spans; chunks come from the shared pool
		r.chunks = append(r.chunks, spanChunkPool.Get().(*[spanChunkSize]span))
	}
	sp := &r.chunks[r.nspans>>spanChunkShift][r.nspans&spanChunkMask]
	r.nspans++
	return sp
}

// spanAt returns the i-th recorded span (0-based). Callers bound i by
// nspans.
//
//snicvet:hotpath
func (r *Recorder) spanAt(i int) *span {
	return &r.chunks[i>>spanChunkShift][i&spanChunkMask]
}

// releaseSpans returns the recorder's span storage to the shared free
// list. The Collector calls it from Attach, after the run's end-of-run
// audit, unless a trace will be written, and for a deduplicated replay
// of a run it already holds. The span, request and open-span counts
// survive; from then on Open, OpenChild and Span record nothing and
// return 0, Close is a no-op, and View finds no span.
func (r *Recorder) releaseSpans() {
	for _, c := range r.chunks {
		spanChunkPool.Put(c)
	}
	r.chunks = nil
	r.dropped = true
}

// record stores one span and counts it. Parentless spans on the
// requests track are request roots; spans ending at openEnd are open.
//
//snicvet:hotpath
func (r *Recorder) record(track, name string, parent SpanID, start, end sim.Time) SpanID {
	if r == nil || r.dropped {
		return 0
	}
	if parent == 0 && track == TrackRequests {
		r.nroots++
	}
	if end == openEnd {
		r.nopen++
	}
	*r.alloc() = span{
		start: start, end: end, parent: parent,
		track: r.internTrack(track), name: r.internName(name),
	}
	return SpanID(r.nspans)
}

// Open starts a span on track at start and returns its ID. Nil-safe:
// a nil recorder returns 0.
//
//snicvet:hotpath
func (r *Recorder) Open(track, name string, start sim.Time) SpanID {
	return r.record(track, name, 0, start, openEnd)
}

// OpenChild starts a span linked to parent. Nil-safe.
//
//snicvet:hotpath
func (r *Recorder) OpenChild(track, name string, parent SpanID, start sim.Time) SpanID {
	return r.record(track, name, parent, start, openEnd)
}

// Close ends an open span. Closing span 0 or an already-closed span is
// a no-op. Nil-safe.
//
//snicvet:hotpath
func (r *Recorder) Close(id SpanID, end sim.Time) {
	if r == nil || r.dropped || id == 0 || int(id) > r.nspans {
		return
	}
	sp := r.spanAt(int(id) - 1)
	if sp.end == openEnd && end != openEnd {
		sp.end = end
		r.nopen--
	}
}

// Span records a complete child span in one call. parent may be 0 for
// a free-standing span. Nil-safe.
//
//snicvet:hotpath
func (r *Recorder) Span(track, name string, parent SpanID, start, end sim.Time) SpanID {
	return r.record(track, name, parent, start, end)
}

// SpanView is the read-only view of one recorded span, with interned
// track/name indices resolved back to strings. Open marks spans whose
// Close was never reached; their End is meaningless.
type SpanView struct {
	Track, Name string
	Parent      SpanID
	Start, End  sim.Time
	Open        bool
}

// View returns span id (1-based, in record order) in place: nothing is
// copied or allocated, and Track and Name are the interned strings. ok
// is false for span 0, for an ID past the last span, and for every ID
// once the recorder's spans were dropped. The span audit in
// internal/invariant is built on this. Nil-safe.
//
//snicvet:hotpath
func (r *Recorder) View(id SpanID) (s SpanView, ok bool) {
	if r == nil || r.dropped || id == 0 || int(id) > r.nspans {
		return SpanView{}, false
	}
	sp := r.spanAt(int(id) - 1)
	return SpanView{
		Track:  r.tracks[sp.track],
		Name:   r.names[sp.name],
		Parent: sp.parent,
		Start:  sp.start,
		End:    sp.end,
		Open:   sp.end == openEnd,
	}, true
}

// SpanCount returns the number of spans recorded so far.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	return r.nspans
}

// RootCount returns the number of parentless spans on the requests
// track — by construction, one per simulated request.
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

//snicvet:hotpath
func (r *Recorder) resource(name string) *resourceStats {
	rs, ok := r.resources[name]
	if !ok {
		//snicvet:ignore hotpath -- first callback from a resource; the stats set stops growing after warm-up
		rs = &resourceStats{}
		r.resources[name] = rs
		//snicvet:ignore hotpath -- first callback from a resource; the stats set stops growing after warm-up
		r.resourceKeys = append(r.resourceKeys, name)
	}
	return rs
}

// ---- sim observer implementations ----
// A Recorder can be installed directly as the observer on every station,
// batch engine, and link of a testbed.

// JobQueued implements sim.StationObserver.
//
//snicvet:hotpath
func (r *Recorder) JobQueued(station string, _ sim.Time, queueLen int) {
	rs := r.resource(station)
	rs.queued++
	if queueLen > rs.peakQueue {
		rs.peakQueue = queueLen
	}
}

// JobStarted implements sim.StationObserver.
//
//snicvet:hotpath
func (r *Recorder) JobStarted(station string, _ sim.Time, _ sim.Duration) {
	r.resource(station).started++
}

// JobFinished implements sim.StationObserver.
//
//snicvet:hotpath
func (r *Recorder) JobFinished(station string, start, end sim.Time) {
	r.resource(station).finished++
	if r.Detail {
		r.Span(station, "job", 0, start, end)
	}
}

// JobDropped implements sim.StationObserver.
//
//snicvet:hotpath
func (r *Recorder) JobDropped(station string, _ sim.Time) {
	r.resource(station).dropped++
}

// FrameSent implements sim.LinkObserver.
//
//snicvet:hotpath
func (r *Recorder) FrameSent(link string, size int, start, done sim.Time, lost bool) {
	rs := r.resource(link)
	rs.frames++
	rs.bytes += uint64(size)
	if lost {
		rs.lostFrames++
	}
	if r.Detail {
		r.Span(link, "frame", 0, start, done)
	}
}

// BatchFlushed implements sim.BatchObserver.
//
//snicvet:hotpath
func (r *Recorder) BatchFlushed(station string, tasks int, _ sim.Duration, _ sim.Time) {
	rs := r.resource(station)
	rs.batches++
	rs.batchTasks += uint64(tasks)
}
