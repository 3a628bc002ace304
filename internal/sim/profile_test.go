package sim

import "testing"

// The engine's self-profiling counters feed the -profile export, so
// their semantics are pinned here: Pending leaves cancelled events out,
// HeapPeak is a true high-water mark, and the event free list actually
// recycles records instead of leaking or double-using them.

func TestLivePendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	var ids []EventID
	for i := 0; i < 10; i++ {
		ids = append(ids, e.At(Time(i+1), func() {}))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	for _, id := range ids[:4] {
		e.Cancel(id)
		e.Cancel(id) // a second cancel of one event is a no-op
	}
	// The cancelled records stay queued until they reach the root, but
	// Pending counts only the events that will fire.
	if e.Pending() != 6 || len(e.queue) != 10 {
		t.Fatalf("Pending = %d with %d records queued, want 6 of 10", e.Pending(), len(e.queue))
	}
	if p := e.Profile(); p.Pending != 6 {
		t.Fatalf("Profile().Pending = %d, want 6", p.Pending)
	}
	e.Run()
	if e.Pending() != 0 || len(e.queue)-e.hole != 0 {
		t.Fatalf("queue not drained: Pending %d, %d records", e.Pending(), len(e.queue)-e.hole)
	}
	if got := e.Profile(); got.Executed != 6 {
		t.Fatalf("executed %d events, want the 6 live ones", got.Executed)
	}
}

func TestProfileHeapPeakAndSweeps(t *testing.T) {
	e := NewEngine()
	// The failover shape: every completion disarms its own guard after
	// it fired, so every cancel finds a fired event.
	ids := make([]EventID, 200)
	for i := 0; i < 200; i++ {
		i := i
		ids[i] = e.At(Time(i+1), func() { e.Cancel(ids[i]) })
	}
	if p := e.Profile(); p.HeapPeak != 200 {
		t.Fatalf("HeapPeak = %d, want 200", p.HeapPeak)
	}
	e.Run()
	p := e.Profile()
	if p.Executed != 200 {
		t.Fatalf("Executed = %d, want 200 (cancelling a fired event must not unfire it)", p.Executed)
	}
	if p.HeapPeak != 200 || p.Pending != 0 || e.ghosts != 0 {
		t.Fatalf("final profile = %+v with %d ghosts", p, e.ghosts)
	}
}

// TestEventFreeListRecycles drives fire→schedule cycles and checks the
// engine reuses event records rather than growing the pool: after the
// first lap around the loop, steady-state scheduling should allocate
// nothing new.
func TestEventFreeListRecycles(t *testing.T) {
	e := NewEngine()
	n := 0
	var loop func()
	loop = func() {
		if n++; n < 1000 {
			e.After(Microsecond, loop)
		}
	}
	e.After(Microsecond, loop)
	e.Run()
	if n != 1000 {
		t.Fatalf("loop ran %d times, want 1000", n)
	}
	// One event in flight at a time: the record fired first, was
	// recycled, and every reschedule reused it — the free list holds at
	// most the single steady-state record, not 1000 retired ones.
	if len(e.free) > 1 {
		t.Fatalf("free list holds %d records after a 1-deep loop, want <=1 (no recycling?)", len(e.free))
	}

	// And recycled records never pin a closure or its argument.
	for _, ev := range e.free {
		if ev.h != nil || ev.arg != nil {
			t.Fatal("recycled event still references its handler or argument")
		}
	}
}

// TestFreeListDeterminism replays the same cancel-heavy schedule on a
// fresh engine and on one whose free list is pre-warmed, and requires
// identical execution: pooling is invisible to the model.
func TestFreeListDeterminism(t *testing.T) {
	replay := func(e *Engine) []int {
		var order []int
		rng := NewRNG(7)
		var ids []EventID
		for i := 0; i < 300; i++ {
			i := i
			// Offsets are relative to Now: the warm engine's clock has
			// already advanced past its warm-up events.
			at := e.Now().Add(Duration(1 + rng.Intn(50)))
			ids = append(ids, e.At(at, func() { order = append(order, i) }))
		}
		for i := 0; i < 300; i += 3 {
			e.Cancel(ids[i])
		}
		e.Run()
		return order
	}

	fresh := NewEngine()
	warm := NewEngine()
	// Pre-warm: run disposable events through so the free list is hot.
	for i := 0; i < 64; i++ {
		warm.At(Time(i+1), func() {})
	}
	warm.Run()
	if len(warm.free) == 0 {
		t.Fatal("warm-up left no records on the free list")
	}

	a, b := replay(fresh), replay(warm)
	if len(a) != len(b) {
		t.Fatalf("executed %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("execution order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
