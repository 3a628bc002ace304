package obs

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// Spans live in fixed chunks; the interesting cases are the boundary
// (IDs spanning two chunks), release (a deduplicated replay dropping
// its chunks at Attach), and a recorder that stores no spans because no
// trace will be written.

func TestSpanChunkBoundary(t *testing.T) {
	r := NewRecorder(1, "chunks")
	const n = spanChunkSize + spanChunkSize/2
	ids := make([]SpanID, n)
	for i := 0; i < n; i++ {
		ids[i] = r.Open(TrackRequests, "request", sim.Time(i))
	}
	if r.SpanCount() != n {
		t.Fatalf("SpanCount = %d, want %d", r.SpanCount(), n)
	}
	// Close one span on each side of the boundary and the last one.
	for _, i := range []int{0, spanChunkSize - 1, spanChunkSize, n - 1} {
		r.Close(ids[i], sim.Time(i+10))
	}
	if got := r.OpenCount(); got != n-4 {
		t.Fatalf("OpenCount = %d, want %d", got, n-4)
	}
	for id := SpanID(1); id <= n; id++ {
		s, ok := r.View(id)
		if !ok || s.Start != sim.Time(int(id)-1) {
			t.Fatalf("span %d = %+v, %v, want start %v", id, s, ok, sim.Time(int(id)-1))
		}
	}
	if _, ok := r.View(n + 1); ok {
		t.Fatalf("View yielded a span past the last of %d", n)
	}
	if r.RootCount() != n {
		t.Fatalf("RootCount = %d, want %d", r.RootCount(), n)
	}

	// Out-of-range and zero IDs stay no-ops at chunked sizes too.
	r.Close(0, 1)
	r.Close(SpanID(n+1), 1)
}

func TestCollectorReleasesDuplicateSpans(t *testing.T) {
	c := NewCollector()
	c.EnableTrace()
	first := c.NewRecorder(42, "run")
	first.Record(first.Intern("request"), 0, 0, 1)
	c.Attach(first)

	dup := c.NewRecorder(42, "run")
	dup.Record(dup.Intern("request"), 0, 0, 1)
	c.Attach(dup)

	// The first copy is kept intact; the loser's chunks were released.
	if _, ok := dup.View(1); ok || len(dup.chunks) != 0 {
		t.Fatalf("duplicate recorder kept its span in %d chunks after Attach", len(dup.chunks))
	}
	runs := c.Runs()
	if len(runs) != 1 || runs[0] != first || runs[0].SpanCount() != 1 {
		t.Fatalf("collector kept %d runs, first has %d spans", len(runs), runs[0].SpanCount())
	}
	if _, ok := first.View(1); !ok {
		t.Fatal("kept recorder lost its span under EnableTrace")
	}
}

// Without EnableTrace a collector's recorder stores no span and takes
// no chunk, yet counts spans, roots and open spans as a storing
// recorder does: its manifest matches a standalone recorder's fed the
// same calls, before and after Attach, and Close still closes.
func TestCountsSurviveSpanDrop(t *testing.T) {
	c := NewCollector()
	r := fillRecorder(c.NewRecorder(3, "drop"))
	ref := buildRecorder(3, "drop")
	var shed SpanID
	for _, rec := range []*Recorder{r, ref} {
		shed = rec.Open(TrackRequests, "request", 5000) // dangling
	}
	if len(r.chunks) != 0 {
		t.Fatalf("untraced recorder took %d chunks", len(r.chunks))
	}
	if _, ok := r.View(1); ok {
		t.Fatal("untraced recorder yields a span")
	}
	want := ref.Manifest()
	if m := r.Manifest(); !reflect.DeepEqual(m, want) {
		t.Fatalf("untraced manifest = %+v, storing recorder's = %+v", m, want)
	}
	c.Attach(r)
	after := c.Manifests()
	if len(after) != 1 || !reflect.DeepEqual(after[0], want) {
		t.Fatalf("manifests after Attach = %+v, want [%+v]", after, want)
	}
	if m := after[0]; m.Requests != 4 || m.Spans != 7 || m.OpenSpans != 1 {
		t.Fatalf("manifest = %+v, want 4 requests, 7 spans, 1 open", m)
	}

	r.Close(shed, 6000)
	if id := r.Record(r.Intern("stage"), shed, 6000, 6100); id != 8 {
		t.Fatalf("untraced recorder numbered its eighth span %d", id)
	}
	if r.SpanCount() != 8 || r.RootCount() != 4 || r.OpenCount() != 0 || len(r.chunks) != 0 {
		t.Fatalf("untraced recorder: %d spans, %d roots, %d open, %d chunks; want 8, 4, 0, 0",
			r.SpanCount(), r.RootCount(), r.OpenCount(), len(r.chunks))
	}
}

// A trace needs the spans a collector without EnableTrace drops, so
// writing one is a typed error, not a trace that silently lacks every
// request.
func TestWriteTraceWithoutEnableTrace(t *testing.T) {
	c := NewCollector()
	c.Attach(buildRecorder(1, "run"))
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); !errors.Is(err, ErrSpansDropped) {
		t.Fatalf("WriteTrace = %v, want ErrSpansDropped", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteTrace wrote %d bytes before failing", buf.Len())
	}

	// A recorder made before a late EnableTrace stored no spans, so the
	// trace still cannot be written once it is attached.
	c = NewCollector()
	early := c.NewRecorder(2, "early")
	c.EnableTrace()
	late := c.NewRecorder(3, "late")
	early.Open(TrackRequests, "request", 0)
	late.Open(TrackRequests, "request", 0)
	if _, ok := late.View(1); !ok {
		t.Fatal("recorder made after EnableTrace stored no span")
	}
	c.Attach(late)
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace of a traced run = %v", err)
	}
	c.Attach(early)
	buf.Reset()
	if err := c.WriteTrace(&buf); !errors.Is(err, ErrSpansDropped) {
		t.Fatalf("WriteTrace after a late EnableTrace = %v, want ErrSpansDropped", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteTrace wrote %d bytes before failing", buf.Len())
	}
}
