package sim

import "testing"

// A link offered twice its line rate builds a backlog that grows for the
// whole run. The link holds that backlog itself, so the event queue
// never holds more than the head frame, while Pending and Executed
// still count every frame as its own event.
func TestLinkBacklogBoundsEventHeap(t *testing.T) {
	const (
		frames = 100_000
		size   = 1250 // 100 ns at 100 Gb/s
		gap    = 50   // ns between sends: 2× line rate
		prop   = Microsecond
	)
	e := NewEngine()
	l := NewLink(e, 100e9, prop)
	delivered := 0
	for i := 0; i < frames; i++ {
		e.RunUntil(Time(i * gap))
		i := i
		l.Send(size, func() {
			// Frame i finishes serializing at (i+1)·100 ns.
			if want := Time((i + 1) * 100).Add(prop); e.Now() != want {
				t.Fatalf("frame %d delivered at %v, want %v", i, e.Now(), want)
			}
			if delivered != i {
				t.Fatalf("frame %d delivered as number %d", i, delivered)
			}
			delivered++
		})
	}
	if got, want := e.Pending(), frames-delivered; got != want || e.LivePending() != want {
		t.Fatalf("Pending = %d, LivePending = %d with %d frames in flight",
			got, e.LivePending(), want)
	}
	if delivered > frames/2 {
		t.Fatalf("%d of %d frames delivered while sending: link was not saturated", delivered, frames)
	}
	e.Run()
	p := e.Profile()
	if delivered != frames || p.Executed != frames {
		t.Fatalf("delivered %d, Executed %d, want %d each", delivered, p.Executed, frames)
	}
	if p.HeapPeak != 1 {
		t.Fatalf("HeapPeak = %d, want 1: only the link's head frame is queued", p.HeapPeak)
	}
	if p.Pending != 0 || p.LivePending != 0 {
		t.Fatalf("drained profile = %+v", p)
	}
}

// A frame behind the head keeps the slot it reserved at Send time: an
// event scheduled later for the same instant fires after it, and one
// scheduled earlier fires before it, exactly as if each frame had been
// scheduled with At when it was sent.
func TestLinkFramesKeepReservedSlots(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 100e9, 0) // 1250 B = 100 ns
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	e.At(100, log("early@100"))
	l.Send(1250, log("frame1@100"))
	l.Send(1250, log("frame2@200"))
	e.At(200, log("late@200"))
	e.Run()
	want := []string{"early@100", "frame1@100", "frame2@200", "late@200"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Frames circulating on a link with a standing backlog keep the
// in-flight ring at a fixed capacity: it never drains, so after warm-up
// every slot it reuses comes from compaction, not growth.
func TestLinkRingCompactsInPlace(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 100e9, Microsecond) // 100 ns frames, 1 µs in flight
	const circulating = 32              // 3.2 µs of work per 1.1 µs cycle
	sends := 0
	var resend func()
	resend = func() {
		if l.ihead == len(l.inflight) {
			t.Fatal("ring drained: no standing backlog")
		}
		sends++
		l.Send(1250, resend)
	}
	for i := 0; i < circulating; i++ {
		l.Send(1250, resend)
	}
	for i := 0; i < 10_000; i++ {
		e.Step()
	}
	capWarm, sendsWarm := cap(l.inflight), sends
	for i := 0; i < 10_000; i++ {
		e.Step()
	}
	if cap(l.inflight) != capWarm {
		t.Fatalf("ring grew from %d to %d slots with %d frames in flight",
			capWarm, cap(l.inflight), circulating)
	}
	if sends-sendsWarm <= 2*capWarm {
		t.Fatalf("only %d sends after warm-up on a %d-slot ring: compaction not exercised",
			sends-sendsWarm, capWarm)
	}
	if l.Backlog() <= 0 {
		t.Fatal("link has no serialization backlog")
	}
	if p := e.Profile(); p.HeapPeak != 1 {
		t.Fatalf("HeapPeak = %d with %d frames in flight, want 1", p.HeapPeak, circulating)
	}
}

func TestLinkNegativeSizePanics(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 100e9, 0)
	l.Send(1250, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Send(-1) did not panic")
		}
	}()
	l.Send(-1, nil)
}
