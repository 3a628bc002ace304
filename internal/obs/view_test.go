package obs

import (
	"testing"

	"repro/internal/sim"
)

// Timing backs the invariant layer's span audit and View labels its
// violations, so both must be faithful: record order, resolved
// track/name strings, parent links and the open marker, and no span for
// IDs outside the record.
func TestViewSpans(t *testing.T) {
	rec := NewRecorder(7, "run")
	root := rec.Open("requests", "req", sim.Time(10))
	child := rec.Begin(rec.Intern("host", "serve"), root, sim.Time(20))
	rec.Close(child, sim.Time(30))
	rec.Close(root, sim.Time(35))
	shed := rec.Open("requests", "shed", sim.Time(40)) // never closed

	if rec.SpanCount() != 3 {
		t.Fatalf("SpanCount = %d, want 3", rec.SpanCount())
	}
	for i, id := range []SpanID{root, child, shed} {
		if id != SpanID(i+1) {
			t.Fatalf("span %d got ID %d, want record order", i, id)
		}
	}
	if v, ok := rec.View(root); !ok || v.Track != "requests" || v.Name != "req" || v.Parent != 0 || v.Open {
		t.Fatalf("root view = %+v, %v", v, ok)
	}
	if v, ok := rec.View(child); !ok || v.Track != "host" || v.Parent != root || v.Start != sim.Time(20) || v.End != sim.Time(30) || v.Open {
		t.Fatalf("child view = %+v, %v", v, ok)
	}
	if v, ok := rec.View(shed); !ok || !v.Open {
		t.Fatalf("never-closed span not marked open: %+v, %v", v, ok)
	}
	for _, id := range []SpanID{root, child, shed} {
		v, _ := rec.View(id)
		if tm, ok := rec.Timing(id); !ok || tm != v.SpanTiming {
			t.Fatalf("Timing(%d) = %+v, %v; View has %+v", id, tm, ok, v.SpanTiming)
		}
	}
	for _, id := range []SpanID{0, 4} {
		if v, ok := rec.View(id); ok {
			t.Fatalf("View(%d) = %+v, want no span", id, v)
		}
		if tm, ok := rec.Timing(id); ok {
			t.Fatalf("Timing(%d) = %+v, want no span", id, tm)
		}
	}
}

// A label resolves a (track, name) pair once. The requests track is
// interned first, so its tid never moves; interning is idempotent; and
// Open is Intern plus Begin, so a span opened either way is the same
// span.
func TestInternedLabels(t *testing.T) {
	rec := NewRecorder(1, "run")
	stage := rec.Intern("host", "serve")
	root := rec.Intern(TrackRequests, "request")
	if root.track() != requestsTrack || rec.tracks[requestsTrack] != TrackRequests {
		t.Fatalf("requests is track %d of %v, want track 0", root.track(), rec.tracks)
	}
	if again := rec.Intern("host", "serve"); again != stage {
		t.Fatalf("Intern(host, serve) = %#x, then %#x", stage, again)
	}

	a := rec.Begin(root, 0, 10)
	b := rec.Open(TrackRequests, "request", 10)
	rec.Close(a, 40)
	rec.Close(b, 40)
	x, _ := rec.View(a)
	y, _ := rec.View(b)
	if x != y {
		t.Fatalf("span %d = %+v, span %d = %+v: the label path and the wrapper differ", a, x, b, y)
	}
	if rec.RootCount() != 2 || rec.OpenCount() != 0 {
		t.Fatalf("roots %d, open %d; want 2 and 0", rec.RootCount(), rec.OpenCount())
	}
}

func TestViewNilRecorder(t *testing.T) {
	var rec *Recorder
	if v, ok := rec.View(1); ok {
		t.Fatalf("nil recorder yielded a span: %+v", v)
	}
	if tm, ok := rec.Timing(1); ok {
		t.Fatalf("nil recorder yielded a timing: %+v", tm)
	}
}
