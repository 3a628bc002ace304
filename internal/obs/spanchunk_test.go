package obs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
)

// Spans live in fixed chunks; the interesting cases are the boundary
// (IDs spanning two chunks) and release (chunks going back to the free
// list when the Collector drops a recorder's spans: a deduplicated
// replay, or any run when no trace will be written).

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

// Without EnableTrace, Attach drops every run's spans and keeps the
// counts: the manifest of a dropped run matches the one it had before.
// A dropped recorder records nothing more and never touches the chunks
// it handed back.
func TestCountsSurviveSpanDrop(t *testing.T) {
	c := NewCollector()
	r := buildRecorder(3, "drop")
	shed := r.Open(TrackRequests, "request", 5000) // dangling
	before := r.Manifest()
	c.Attach(r)
	if len(r.chunks) != 0 {
		t.Fatalf("recorder kept %d chunks after Attach without EnableTrace", len(r.chunks))
	}
	after := c.Manifests()
	if len(after) != 1 {
		t.Fatalf("manifest count = %d, want 1", len(after))
	}
	if m := after[0]; m.Requests != 4 || m.Spans != 7 || m.OpenSpans != 1 ||
		m.Requests != before.Requests || m.Spans != before.Spans || m.OpenSpans != before.OpenSpans {
		t.Fatalf("manifest after drop = %+v, before = %+v", m, before)
	}

	r.Close(shed, 6000)
	if id := r.Open(TrackRequests, "request", 7000); id != 0 {
		t.Fatalf("dropped recorder opened span %d", id)
	}
	if id := r.Record(r.Intern("stage"), 1, 7000, 7100); id != 0 {
		t.Fatalf("dropped recorder recorded span %d", id)
	}
	if _, ok := r.View(1); ok {
		t.Fatal("dropped recorder still yields spans")
	}
	if r.SpanCount() != 7 || r.RootCount() != 4 || r.OpenCount() != 1 || len(r.chunks) != 0 {
		t.Fatalf("dropped recorder moved: %d spans, %d roots, %d open, %d chunks",
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

	// Runs attached before a late EnableTrace lost their spans too.
	c.EnableTrace()
	if err := c.WriteTrace(&buf); !errors.Is(err, ErrSpansDropped) {
		t.Fatalf("WriteTrace after a late EnableTrace = %v, want ErrSpansDropped", err)
	}
}
