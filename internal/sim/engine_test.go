package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO at index %d: got %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(10, func() {
		e.After(5, func() { fired = append(fired, e.Now()) })
		e.After(1, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 11 || fired[1] != 15 {
		t.Fatalf("nested events fired at %v, want [11 15]", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, func() { fired = true })
	e.Cancel(id)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Executed() != 0 {
		t.Fatalf("executed = %d, want 0", e.Executed())
	}
}

func TestEngineCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	n := 0
	id := e.At(10, func() { n++ })
	e.Run()
	e.Cancel(id) // must not affect future events
	e.At(20, func() { n++ })
	e.Run()
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

// A cancelled ghost at the head of the queue must not let RunUntil fire
// the next live event when that event lies past the deadline.
func TestEngineRunUntilStopsBehindCancelledHead(t *testing.T) {
	e := NewEngine()
	e.Cancel(e.At(5, func() { t.Fatal("cancelled event fired") }))
	var fired []Time
	e.At(20, func() { fired = append(fired, e.Now()) })
	e.RunUntil(10)
	if len(fired) != 0 {
		t.Fatalf("RunUntil(10) fired the t=20 event (at %v)", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v after RunUntil(10), want 10ns", e.Now())
	}
	if e.Pending() != 1 || e.CancelledPending() != 0 {
		t.Fatalf("pending = %d, cancelled = %d; want the live event queued and the ghost gone",
			e.Pending(), e.CancelledPending())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 20 {
		t.Fatalf("later Run fired at %v, want [20ns]", fired)
	}
}

func TestEngineStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDurationOf(t *testing.T) {
	// 1250 bytes at 100 Gb/s = 10000 bits / 1e11 bits/s = 100 ns.
	if d := DurationOf(1250, 100e9); d != 100 {
		t.Fatalf("DurationOf = %v, want 100ns", d)
	}
	// 1 KB at 1 Gb/s = 8192 ns.
	if d := DurationOf(1024, 1e9); d != 8192 {
		t.Fatalf("DurationOf = %v, want 8192ns", d)
	}
}

func TestCycles(t *testing.T) {
	// 2100 cycles at 2.1 GHz = 1 µs.
	if d := Cycles(2100, 2.1e9); d != Duration(Microsecond) {
		t.Fatalf("Cycles = %v, want 1µs", d)
	}
}

// Property: for any schedule of events, execution order is by timestamp.
func TestEngineOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		if len(stamps) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			at := Time(s)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
