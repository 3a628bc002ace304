package sim

import (
	"errors"
	"testing"
)

// wire is the sending side shared by Link and refLink, so one fuzz body
// can drive either.
type wire interface {
	Send(size int, deliver func()) Time
	SendCall(size int, h EventHandler) Time
}

// refLink is the order oracle for Link: the same serialization
// arithmetic, but every frame is scheduled with At at send time — one
// queue entry per frame, the behaviour Link's head-only queueing must
// reproduce exactly.
type refLink struct {
	eng         *Engine
	rateBits    float64
	propagation Duration
	freeAt      Time
}

func (r *refLink) Send(size int, deliver func()) Time {
	start := r.eng.Now()
	if r.freeAt > start {
		start = r.freeAt
	}
	done := start.Add(DurationOf(size, r.rateBits))
	r.freeAt = done
	r.eng.At(done.Add(r.propagation), deliver)
	return done
}

func (r *refLink) SendCall(size int, h EventHandler) Time {
	return r.Send(size, func() { h.HandleEvent(nil) })
}

// callDelivery is a pointer-receiver delivery handler, the shape
// SendCall's callers pass.
type callDelivery struct{ deliver func() }

func (c *callDelivery) HandleEvent(any) { c.deliver() }

// FuzzEngineSchedule drives the event heap with byte-derived schedules —
// including nested scheduling from inside callbacks, same-timestamp
// pileups and link-send bursts — and asserts the engine's laws: the
// clock never runs backwards, events fire in (time, submission) order,
// scheduling in the past always yields the typed error, and the whole
// thing is deterministic (two identical runs fire identical sequences).
//
// Link sends are checked against refLink: the firing sequence with a
// real Link must equal the one an engine gives when each frame is
// scheduled with At(arrival) at send time. Frames mix Send and SendCall
// on the same link, so closure and handler frames share one ring. The link runs at one byte
// per nanosecond with zero- to three-byte frames, so bursts sent in one
// callback arrive back to back or on the same nanosecond, and arrivals
// collide with ordinary events on the small integer timeline.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{5, 5, 5, 5, 5, 5})
	f.Add([]byte{255, 0, 128, 9, 9, 63, 250})
	f.Add([]byte{})
	// Two frames sent at t=39 arrive at 44 and 45; an event scheduled at
	// t=41 for t=45 must fire after the second frame, whose slot was
	// reserved first even though it reached the link's head later.
	f.Add([]byte{39, 102})
	// A four-frame burst at t=15 whose zero-size tail lands three frames
	// on one nanosecond, next to another burst.
	f.Add([]byte{15, 23, 23})
	// Four-frame bursts whose frames alternate between SendCall and Send.
	f.Add([]byte{63, 207, 51, 243})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		type firing struct {
			at  Time
			ord int
		}
		run := func(useLink bool) []firing {
			e := NewEngine()
			var w wire = &refLink{eng: e, rateBits: 8e9, propagation: 2}
			if useLink {
				w = NewLink(e, 8e9, 2)
			}
			var fired []firing
			ord := 0
			var schedule func(at Time, depth int, b byte)
			// send transmits one frame of b%4 bytes, through SendCall
			// when bit 4 of b is set and Send otherwise; its delivery
			// logs itself and may schedule at the arrival instant.
			send := func(depth int, b byte) {
				myOrd := ord
				ord++
				deliver := func() {
					fired = append(fired, firing{at: e.Now(), ord: myOrd})
					if depth < 3 && b%3 == 0 {
						schedule(e.Now(), depth+1, b/3)
					}
				}
				if b&0x10 != 0 {
					w.SendCall(int(b%4), &callDelivery{deliver: deliver})
				} else {
					w.Send(int(b%4), deliver)
				}
			}
			schedule = func(at Time, depth int, b byte) {
				myOrd := ord
				ord++
				e.At(at, func() {
					if e.Now() != at {
						t.Fatalf("event scheduled for %v fired at %v", at, e.Now())
					}
					fired = append(fired, firing{at: at, ord: myOrd})
					// Scheduling before now must fail with the typed
					// error, from any point in the run.
					if _, err := e.TryAt(e.Now()-1, func() {}); err == nil {
						t.Fatalf("TryAt(%v) accepted at now=%v", e.Now()-1, e.Now())
					} else {
						var pe *PastEventError
						if !errors.As(err, &pe) {
							t.Fatalf("past schedule returned %T, want *PastEventError", err)
						}
					}
					if b%4 == 3 {
						// A burst of one to four frames with no gap
						// between sends.
						for i := 0; i <= int(b/4)%4; i++ {
							send(depth, b>>uint(2*i))
						}
					}
					if depth < 3 && b%3 == 0 {
						schedule(e.Now().Add(Duration(b%7)), depth+1, b/3)
					}
				})
			}
			for _, b := range data {
				schedule(Time(int(b)%61), 0, b)
			}
			e.Run()
			if e.Pending() != 0 {
				t.Fatalf("Run left %d events pending", e.Pending())
			}
			if e.Executed() != uint64(len(fired)) {
				t.Fatalf("Executed = %d, but %d events fired", e.Executed(), len(fired))
			}
			return fired
		}

		first := run(true)
		same := func(what string, other []firing) {
			t.Helper()
			if len(other) != len(first) {
				t.Fatalf("%s fired %d events, link run %d", what, len(other), len(first))
			}
			for i := range first {
				if first[i] != other[i] {
					t.Fatalf("%s diverged at firing %d: link %+v vs %+v", what, i, first[i], other[i])
				}
			}
		}
		same("per-frame oracle", run(false))
		for i := 1; i < len(first); i++ {
			if first[i].at < first[i-1].at {
				t.Fatalf("clock regressed: event %d at %v after %v", i, first[i].at, first[i-1].at)
			}
			if first[i].at == first[i-1].at && first[i].ord < first[i-1].ord {
				t.Fatalf("FIFO broken at %v: submission %d fired after %d",
					first[i].at, first[i].ord, first[i-1].ord)
			}
		}
		same("replay", run(true))
	})
}
