package obs

import (
	"testing"

	"repro/internal/sim"
)

// View backs the invariant layer's span audit, so it must be faithful:
// record order, resolved track/name strings, parent links and the open
// marker, and no span for IDs outside the record.
func TestViewSpans(t *testing.T) {
	rec := NewRecorder(7, "run")
	root := rec.Open("requests", "req", sim.Time(10))
	child := rec.OpenChild("host", "serve", root, sim.Time(20))
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
	for _, id := range []SpanID{0, 4} {
		if v, ok := rec.View(id); ok {
			t.Fatalf("View(%d) = %+v, want no span", id, v)
		}
	}
}

func TestViewNilRecorder(t *testing.T) {
	var rec *Recorder
	if v, ok := rec.View(1); ok {
		t.Fatalf("nil recorder yielded a span: %+v", v)
	}
}
