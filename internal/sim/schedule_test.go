package sim

import (
	"errors"
	"testing"
)

// recoverPast runs schedule and returns the *PastEventError it panics
// with, or nil if it does not panic with one.
func recoverPast(schedule func()) (pe *PastEventError) {
	defer func() {
		if err, ok := recover().(error); ok {
			errors.As(err, &pe)
		}
	}()
	schedule()
	return nil
}

// A past timestamp on the handler form panics with the typed error, as
// At does, and queues nothing.
func TestTryAtPastReturnsTypedError(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	h := &callDelivery{deliver: func() { t.Fatal("past event ran") }}
	pe := recoverPast(func() { e.AtCall(40, h, nil) })
	if pe == nil {
		t.Fatal("AtCall(40) at now=100 did not panic with *PastEventError")
	}
	if pe.At != 40 || pe.Now != 100 {
		t.Fatalf("error fields At=%v Now=%v, want 40/100", pe.At, pe.Now)
	}
	if pe := recoverPast(func() { e.AfterCall(-1, h, nil) }); pe == nil {
		t.Fatal("AfterCall(-1) did not panic with *PastEventError")
	}
	if e.Pending() != 0 {
		t.Fatalf("failed schedules left %d events queued", e.Pending())
	}
	e.Run()
	if e.Executed() != 1 {
		t.Fatalf("Executed = %d, want only the first event", e.Executed())
	}
}

// The boundary case: an event scheduled exactly at the current time is
// valid — it fires this instant, after already-queued work at the same
// timestamp, in either form.
func TestTryAtExactlyNowIsValid(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(50, func() {
		e.AtCall(e.Now(), &callDelivery{deliver: func() { order = append(order, 2) }}, nil)
		e.At(e.Now(), func() { order = append(order, 3) })
		order = append(order, 1)
	})
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("same-instant order = %v, want [1 2 3]", order)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v after same-instant events, want 50", e.Now())
	}
}

func TestAtPanicsWithTypedError(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		r := recover()
		pe, ok := r.(*PastEventError)
		if !ok {
			t.Fatalf("At panicked with %T (%v), want *PastEventError", r, r)
		}
		if pe.At != 3 || pe.Now != 10 {
			t.Fatalf("panic fields At=%v Now=%v, want 3/10", pe.At, pe.Now)
		}
	}()
	e.At(3, func() {})
}

func TestAfterNegativePanicsWithTypedError(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if _, ok := recover().(*PastEventError); !ok {
			t.Fatal("After(-d) did not panic with *PastEventError")
		}
	}()
	e.After(-1, func() {})
}

// A nil closure or handler is a model bug caught at schedule time, not
// when the event fires; nothing is queued.
func TestTryAtNilFnStillPanics(t *testing.T) {
	e := NewEngine()
	for _, c := range []struct {
		name     string
		schedule func()
	}{
		{"At(nil)", func() { e.At(5, nil) }},
		{"AtCall(nil)", func() { e.AtCall(5, nil, nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.schedule()
		}()
	}
	if e.Pending() != 0 {
		t.Fatalf("nil schedules left %d events queued", e.Pending())
	}
}
