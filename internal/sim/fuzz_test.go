package sim

import (
	"bytes"
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
// scheduling in the past always panics with the typed error, and the
// whole thing is deterministic (two identical runs fire identical
// sequences).
//
// Link sends are checked against refLink: the firing sequence with a
// real Link must equal the one an engine gives when each frame is
// scheduled with At(arrival) at send time. Frames mix Send and SendCall
// on the same link, so closure and handler frames share one ring. The link runs at one byte
// per nanosecond with zero- to three-byte frames, so bursts sent in one
// callback arrive back to back or on the same nanosecond, and arrivals
// collide with ordinary events on the small integer timeline.
//
// ctl drives what a run does around the schedule. ctl[0]%8, when not
// zero, is the period of a Ticker armed before the first event. ctl[1]%16,
// when not zero, runs the engine through RunUntil deadlines that far
// apart instead of Run; the rounds must drain the queue by the latest At
// time plus the link time of every frame sent, the propagation, one
// ticker period and one step. ctl[2:] gives the At events, in firing
// order, one op each (see the op constants). Every event and tick reads the
// queue while the slot it fired from may still be empty, and Pending()
// must count exactly the live events the fuzz knows of: cancelled ones
// never, however long their records stay queued.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{})
	f.Add([]byte{5, 5, 5, 5, 5, 5}, []byte{})
	f.Add([]byte{255, 0, 128, 9, 9, 63, 250}, []byte{})
	f.Add([]byte{}, []byte{})
	// Two frames sent at t=39 arrive at 44 and 45; an event scheduled at
	// t=41 for t=45 must fire after the second frame, whose slot was
	// reserved first even though it reached the link's head later.
	f.Add([]byte{39, 102}, []byte{})
	// A four-frame burst at t=15 whose zero-size tail lands three frames
	// on one nanosecond, next to another burst.
	f.Add([]byte{15, 23, 23}, []byte{})
	// Four-frame bursts whose frames alternate between SendCall and Send.
	f.Add([]byte{63, 207, 51, 243}, []byte{})
	// The first event to fire (t=0) cancels the third pending one (t=30),
	// which must never fire.
	f.Add([]byte{0, 5, 12, 30, 47}, []byte{0, 0, opCancelPending | 2<<3})
	// The first event to fire cancels the first fired (itself), the
	// second cancels its own ID and the third the second fired: each
	// target already fired, so each cancel is a no-op.
	f.Add([]byte{3, 6, 9, 12}, []byte{0, 0, opCancelFired, opCancelOwn, opCancelFired | 1<<3})
	// The cancel-heavy shape of a fault run: the 80th of 100 events
	// disarms every event that already fired, newest (itself) first,
	// while the slot it fired from is empty and the next events it
	// schedules reuse the fired records.
	f.Add(bytes.Repeat([]byte{1, 2, 4, 5}, 25), sweepOps())
	// A ticker every 3 ns beside nested schedules and link bursts.
	f.Add([]byte{0, 9, 27, 39, 60}, []byte{3})
	// RunUntil deadlines 5 ns apart, with a cancelled event queued across
	// deadlines until one passes it.
	f.Add([]byte{0, 9, 27, 39, 60}, []byte{0, 5, opCancelPending | 3<<3})
	// A ticker and RunUntil deadlines together, with a cancel.
	f.Add([]byte{0, 9, 27, 39, 60}, []byte{2, 3, opCancelPending | 1<<3})
	// Under Run with a ticker, the event at t=1 cancels the one at t=40
	// and the event at t=2 cancels its own ID, scheduling nothing: Run's
	// stop rule then reads Pending while t=2's slot is still empty and
	// the ghost of t=40 is queued, and t=41 must still fire.
	f.Add([]byte{1, 2, 40, 41}, []byte{5, 0, opCancelPending | 1<<3, opCancelOwn})
	// 128 roots at t=21, each sending a 3+3+0+2-byte burst: 1,024 bytes
	// queue on the link, so RunUntil rounds 1 ns apart beside a 1 ns
	// ticker drain only at t=1,047, past a thousand rounds.
	f.Add(bytes.Repeat([]byte{143}, 128), []byte{1, 1})

	f.Fuzz(func(t *testing.T, data, ctl []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		var period, step Duration
		if len(ctl) > 0 {
			period = Duration(ctl[0] % 8)
		}
		if len(ctl) > 1 {
			step = Duration(ctl[1] % 16)
		}
		var ops []byte
		if len(ctl) > 2 {
			ops = ctl[2:]
		}
		type firing struct {
			at  Time
			ord int
		}
		// atEvent is the fuzz's own record of an At event.
		type atEvent struct {
			id    EventID
			at    Time
			fired bool
			// cancelled marks a cancel that came before the event fired.
			cancelled bool
		}
		run := func(useLink bool) []firing {
			e := NewEngine()
			var w wire = &refLink{eng: e, rateBits: 8e9, propagation: 2}
			if useLink {
				w = NewLink(e, 8e9, 2)
			}
			var fired []firing
			ord := 0
			// live counts the model's events (At events and frames) that
			// are neither fired nor cancelled.
			live := 0
			// latest is the latest time any At event was scheduled for,
			// and sentBytes the size of every frame sent so far.
			var latest Time
			sentBytes := 0
			var evs []*atEvent
			var firedEvs []*atEvent
			ticks, ticker := 0, 0
			// check compares the engine's counts with the fuzz's own.
			// tickers is the number of ticker events queued right now.
			check := func(where string, tickers int) {
				t.Helper()
				if p, want := e.Pending(), live+tickers; p != want {
					t.Fatalf("%s at %v: Pending = %d, want %d", where, e.Now(), p, want)
				}
			}
			cancel := func(ev *atEvent) {
				if !ev.fired && !ev.cancelled {
					ev.cancelled = true
					live--
				}
				e.Cancel(ev.id)
			}
			var schedule func(at Time, depth int, b byte)
			// send transmits one frame of b%4 bytes, through SendCall
			// when bit 4 of b is set and Send otherwise; its delivery
			// logs itself and may schedule at the arrival instant.
			send := func(depth int, b byte) {
				myOrd := ord
				ord++
				live++
				sentBytes += int(b % 4)
				deliver := func() {
					live--
					check("delivery", ticker)
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
				ev := &atEvent{at: at}
				evs = append(evs, ev)
				live++
				if at > latest {
					latest = at
				}
				ev.id = e.At(at, func() {
					if e.Now() != at {
						t.Fatalf("event scheduled for %v fired at %v", at, e.Now())
					}
					if ev.fired || ev.cancelled {
						t.Fatalf("event %d fired again or after its cancel", myOrd)
					}
					ev.fired = true
					live--
					firedEvs = append(firedEvs, ev)
					fired = append(fired, firing{at: at, ord: myOrd})
					// The slot this event fired from is still empty here.
					check("event", ticker)
					var op byte
					if i := len(firedEvs) - 1; i < len(ops) {
						op = ops[i]
					}
					k := int(op>>3) & 15
					switch op & 7 {
					case opCancelPending:
						var pending []*atEvent
						for _, o := range evs {
							if !o.fired && !o.cancelled {
								pending = append(pending, o)
							}
						}
						if len(pending) > 0 {
							cancel(pending[k%len(pending)])
						}
					case opCancelFired:
						cancel(firedEvs[k%len(firedEvs)])
					case opCancelOwn:
						cancel(ev)
					case opCancelAllFired:
						for i := len(firedEvs) - 1; i >= 0; i-- {
							cancel(firedEvs[i])
						}
					}
					check("event", ticker)
					// Scheduling before now must panic with the typed
					// error, from any point in the run, and queue nothing.
					if pe := recoverPast(func() { e.At(e.Now()-1, func() {}) }); pe == nil {
						t.Fatalf("At(%v) did not panic with *PastEventError at now=%v", e.Now()-1, e.Now())
					}
					check("past schedule", ticker)
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
					check("event", ticker)
				})
			}
			if period > 0 {
				// The tick fires from the queue's root like any event; fn
				// runs only while other events remain, before the ticker
				// re-arms.
				ticker = 1
				e.Ticker(period, func() {
					ticks++
					check("tick", 0)
				})
			}
			for _, b := range data {
				schedule(Time(int(b)%61), 0, b)
			}
			// A ticker's last tick fires only under RunUntil: Run stops
			// while the ticker is the only event left.
			lastTick := 0
			if step == 0 {
				e.Run()
			} else {
				for e.Pending() > 0 {
					// Every frame is sent by an At event, so at one byte
					// a nanosecond the link is idle by latest+sentBytes
					// and the last frame arrives a propagation delay
					// later; after the last event the ticker ticks once
					// more, and the rounds overshoot by less than a step.
					drainBy := latest.Add(Duration(sentBytes) + 2 + period + step)
					if e.Now() > drainBy {
						t.Fatalf("RunUntil rounds never drained the queue: %d pending at %v, past %v", e.Pending(), e.Now(), drainBy)
					}
					deadline := e.Now().Add(step)
					e.RunUntil(deadline)
					if e.Now() != deadline {
						t.Fatalf("RunUntil(%v) left the clock at %v", deadline, e.Now())
					}
					for _, ev := range evs {
						if !ev.fired && !ev.cancelled && ev.at <= deadline {
							t.Fatalf("RunUntil(%v) left an event due at %v", deadline, ev.at)
						}
					}
				}
				lastTick, ticker = ticker, 0
			}
			check("end", ticker)
			if e.Pending() != ticker {
				t.Fatalf("run left %d events pending, want %d", e.Pending(), ticker)
			}
			for _, ev := range evs {
				if !ev.fired && !ev.cancelled {
					t.Fatalf("event due at %v never fired", ev.at)
				}
			}
			if want := uint64(len(fired) + ticks + lastTick); e.Executed() != want {
				t.Fatalf("Executed = %d, but %d events and %d ticks fired", e.Executed(), len(fired), ticks+lastTick)
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

// The ops FuzzEngineSchedule's ctl bytes give At events. The low three
// bits pick a cancel; bits 3 to 6 pick which event it targets among those
// pending or fired.
const (
	opCancelPending  = 1 // cancel a pending At event
	opCancelFired    = 2 // cancel an At event that already fired
	opCancelOwn      = 3 // cancel the firing event's own ID
	opCancelAllFired = 4 // cancel every fired At event, newest first
)

// sweepOps gives the 80th At event to fire opCancelAllFired.
func sweepOps() []byte {
	ctl := make([]byte, 2+80)
	ctl[len(ctl)-1] = opCancelAllFired
	return ctl
}
