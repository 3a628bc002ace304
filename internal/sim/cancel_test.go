package sim

import "testing"

// A long fault run disarms one timeout guard per request after it fires.
// Those cancels must leave nothing behind: the guard's record went back
// to the free list when it fired, so the engine keeps one record for
// the whole loop however many cycles it runs.
func TestEngineCancelSweepBoundsMemory(t *testing.T) {
	e := NewEngine()
	const n = 20000
	for i := 0; i < n; i++ {
		id := e.After(1, func() {})
		e.Run() // the guard fires...
		e.Cancel(id)
	}
	if e.Pending() != 0 || e.ghosts != 0 {
		t.Fatalf("after %d fire-then-cancel cycles: Pending = %d, %d ghosts, want 0 and 0",
			n, e.Pending(), e.ghosts)
	}
	// The empty root slot a fired event leaves points at a record that is
	// already on the free list, so it does not count twice.
	if held := len(e.queue) - e.hole + len(e.free); held != 1 {
		t.Fatalf("engine holds %d event records after %d fire-then-cancel cycles, want 1", held, n)
	}
	if p := e.Profile(); p.Executed != n || p.HeapPeak != 1 {
		t.Fatalf("profile %+v, want %d events at a heap peak of 1", p, n)
	}
}

// Cancelling must not change which pending events fire or their order,
// with fired-then-cancelled guards reusing records among them.
func TestEngineCancelSweepPreservesPendingEvents(t *testing.T) {
	e := NewEngine()
	var fired []int
	var ids []EventID
	for i := 0; i < 500; i++ {
		i := i
		ids = append(ids, e.At(Time(1000+i), func() { fired = append(fired, i) }))
	}
	// Cancel every odd event; the even ones must still fire in order.
	for i := 1; i < 500; i += 2 {
		e.Cancel(ids[i])
	}
	if e.Pending() != 250 {
		t.Fatalf("Pending = %d after cancelling 250 of 500, want 250", e.Pending())
	}
	// Pile on guards that each step then cancels. From t=1000 on, a
	// step that meets a live event at its guard's instant fires that
	// event instead, and the guard is cancelled while still queued.
	for i := 0; i < 2000; i++ {
		id := e.After(1, func() {})
		e.Step()
		e.Cancel(id)
	}
	e.Run()
	if len(fired) != 250 {
		t.Fatalf("fired %d events, want 250", len(fired))
	}
	for j, v := range fired {
		if v != 2*j {
			t.Fatalf("fired[%d] = %d, want %d (order disturbed by cancels)", j, v, 2*j)
		}
	}
}

// Cancelling a queued event must still work after fired-then-cancelled
// guards came and went around it.
func TestEngineCancelAfterSweepStillCancels(t *testing.T) {
	e := NewEngine()
	fired := false
	target := e.At(10_000, func() { fired = true })
	for i := 0; i < 1000; i++ {
		id := e.After(1, func() {})
		e.Step()
		e.Cancel(id)
	}
	e.Cancel(target)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d with the only queued event cancelled, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("event cancelled after fire-then-cancel cycles still fired")
	}
}

// A fired event's record goes back to the free list, and the next event
// scheduled takes it. Cancelling the fired event's ID must not cancel
// the event that now holds its record, whether that event was scheduled
// after the run or by the fired event's own handler.
func TestEngineCancelStaleIDSparesReusedRecord(t *testing.T) {
	e := NewEngine()
	old := e.At(10, func() {})
	e.Run()
	fired := 0
	next := e.At(20, func() { fired++ })
	if next.ev != old.ev {
		t.Fatal("the next event did not reuse the fired event's record")
	}
	e.Cancel(old)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after cancelling a fired event's ID, want 1", e.Pending())
	}
	e.Run()

	var own EventID
	own = e.At(30, func() {
		next := e.At(40, func() { fired++ })
		if next.ev != own.ev {
			t.Error("the handler's event did not reuse the firing event's record")
		}
		e.Cancel(own)
	})
	e.Run()
	if fired != 2 {
		t.Fatalf("%d of 2 events fired: a stale ID cancelled the event that reused its record", fired)
	}
}
