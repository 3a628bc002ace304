package obs

import (
	"testing"

	"repro/internal/sim"
)

// View reads a stored span back, so it must be faithful: record order,
// resolved name strings, parent links and the open marker, and no span
// for IDs outside the record.
func TestViewSpans(t *testing.T) {
	rec := NewRecorder(7, "run")
	root := rec.Open(TrackRequests, "req", sim.Time(10))
	child := rec.Begin(rec.Intern("serve"), root, sim.Time(20))
	rec.Close(child, sim.Time(30))
	rec.Close(root, sim.Time(35))
	shed := rec.Open(TrackRequests, "shed", sim.Time(40)) // never closed

	if rec.SpanCount() != 3 {
		t.Fatalf("SpanCount = %d, want 3", rec.SpanCount())
	}
	for i, id := range []SpanID{root, child, shed} {
		if id != SpanID(i+1) {
			t.Fatalf("span %d got ID %d, want record order", i, id)
		}
	}
	if v, ok := rec.View(root); !ok || v.Name != "req" || v.Parent != 0 || v.Open {
		t.Fatalf("root view = %+v, %v", v, ok)
	}
	if v, ok := rec.View(child); !ok || v.Name != "serve" || v.Parent != root || v.Start != sim.Time(20) || v.End != sim.Time(30) || v.Open {
		t.Fatalf("child view = %+v, %v", v, ok)
	}
	if v, ok := rec.View(shed); !ok || !v.Open {
		t.Fatalf("never-closed span not marked open: %+v, %v", v, ok)
	}
	for _, id := range []SpanID{0, 4} {
		if v, ok := rec.View(id); ok {
			t.Fatalf("View(%d) = %+v, want no span", id, v)
		}
	}
}

// A label resolves a name once: interning is idempotent, distinct
// names get distinct labels, and Open is Intern plus Begin, so a span
// opened either way is the same span. Open knows only the requests
// track.
func TestInternedLabels(t *testing.T) {
	rec := NewRecorder(1, "run")
	stage := rec.Intern("serve")
	root := rec.Intern("request")
	if root == stage {
		t.Fatalf("serve and request share label %d", root)
	}
	if again := rec.Intern("serve"); again != stage {
		t.Fatalf("Intern(serve) = %d, then %d", stage, again)
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
	defer func() {
		if recover() == nil {
			t.Fatal("Open on a track other than requests did not panic")
		}
	}()
	rec.Open("host", "serve", 50)
}

func TestViewNilRecorder(t *testing.T) {
	var rec *Recorder
	if v, ok := rec.View(1); ok {
		t.Fatalf("nil recorder yielded a span: %+v", v)
	}
}
