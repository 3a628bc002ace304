package sim

import "testing"

// obsLog records every observer callback for assertion.
type obsLog struct {
	queued, started, finished, dropped int
	waits                              []Duration
	frames                             int
	lost                               int
	batches                            int
	batchTasks                         int
}

func (o *obsLog) JobQueued(Time, int) { o.queued++ }
func (o *obsLog) JobStarted(_ Time, w Duration) {
	o.started++
	o.waits = append(o.waits, w)
}
func (o *obsLog) JobFinished(Time, Time) { o.finished++ }
func (o *obsLog) JobDropped(Time)        { o.dropped++ }
func (o *obsLog) FrameSent(_ int, _, _ Time, lost bool) {
	o.frames++
	if lost {
		o.lost++
	}
}
func (o *obsLog) BatchFlushed(tasks int, _ Duration, _ Time) {
	o.batches++
	o.batchTasks += tasks
}

func TestTickerStopsWhenOnlyTickersRemain(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Ticker(10, func() { ticks++ })
	e.At(100, func() {}) // model work ends at t=100
	e.Run()
	// The ticker must sample through the model's horizon but never extend
	// it: the last firing tick is at or just past t=100.
	if ticks < 9 || ticks > 11 {
		t.Fatalf("ticks = %d, want ~10 over a 100ns horizon", ticks)
	}
	if e.Now() > 120 {
		t.Fatalf("ticker extended the simulation to %v", e.Now())
	}
}

// A cancelled event never fires, so it must not keep a ticker sampling
// under RunUntil either: once the live event at t=50 has fired, only the
// ticker and a ghost at t=1000 remain, and the ticker stops.
func TestTickerStopsBehindCancelledEvent(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Ticker(10, func() { ticks++ })
	e.At(50, func() {})
	e.Cancel(e.At(1000, func() { t.Fatal("cancelled event fired") }))
	e.RunUntil(2000)
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4: the ticker sampled past the last live event", ticks)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after the ticker stopped, want 0", e.Pending())
	}
}

func TestMultipleTickersTerminate(t *testing.T) {
	e := NewEngine()
	var a, b, c int
	e.Ticker(7, func() { a++ })
	e.Ticker(13, func() { b++ })
	e.Ticker(13, func() { c++ })
	e.At(200, func() {})
	e.Run() // must not livelock: tickers alone cannot sustain the queue
	if a == 0 || b == 0 || c == 0 {
		t.Fatalf("all tickers must fire: %d %d %d", a, b, c)
	}
}

func TestTickerSeesRealEvents(t *testing.T) {
	e := NewEngine()
	var samples []Time
	e.Ticker(10, func() { samples = append(samples, e.Now()) })
	// Chain of real events keeps the model alive until t=55.
	var step func()
	n := 0
	step = func() {
		n++
		if n < 11 {
			e.After(5, step)
		}
	}
	e.At(0, step)
	e.Run()
	if len(samples) < 5 {
		t.Fatalf("expected ~5 samples over 55ns at period 10, got %v", samples)
	}
	for i, s := range samples {
		if want := Time(10 * (i + 1)); s != want {
			t.Fatalf("sample %d at %v, want %v", i, s, want)
		}
	}
}

func TestStationObserverCounts(t *testing.T) {
	e := NewEngine()
	st := NewStation(e, 1)
	st.Capacity = 1
	log := &obsLog{}
	st.Observe(log)
	e.At(0, func() {
		st.Submit(&Job{Service: 10}) // starts immediately
		st.Submit(&Job{Service: 10}) // queues (wait 10)
		st.Submit(&Job{Service: 10}) // queue full: dropped
	})
	e.Run()
	if log.started != 2 || log.finished != 2 || log.dropped != 1 {
		t.Fatalf("started/finished/dropped = %d/%d/%d, want 2/2/1",
			log.started, log.finished, log.dropped)
	}
	// Only the job that actually waited in the queue counts as queued.
	if log.queued != 1 {
		t.Fatalf("queued = %d, want 1", log.queued)
	}
	if len(log.waits) != 2 || log.waits[0] != 0 || log.waits[1] != 10 {
		t.Fatalf("waits = %v, want [0 10]", log.waits)
	}
}

func TestLinkObserverFrames(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 8e9, 0) // 1 byte/ns
	log := &obsLog{}
	l.Observe(log)
	e.At(0, func() {
		l.Send(100, func() {})
		l.SetDown(true)
		l.Send(100, func() {})
	})
	e.Run()
	if log.frames != 2 || log.lost != 1 {
		t.Fatalf("frames/lost = %d/%d, want 2/1", log.frames, log.lost)
	}
}

func TestBatchObserverFlush(t *testing.T) {
	e := NewEngine()
	b := NewBatchStation(e, 4, 100, 10)
	log := &obsLog{}
	b.Observe(log, log)
	e.At(0, func() {
		for i := 0; i < 6; i++ {
			b.Submit(&Job{Size: 64})
		}
	})
	e.Run()
	// 6 tasks at maxBatch 4: one full flush of 4, one timeout flush of 2.
	if log.batches != 2 || log.batchTasks != 6 {
		t.Fatalf("batches/tasks = %d/%d, want 2/6", log.batches, log.batchTasks)
	}
	if log.started == 0 || log.finished == 0 {
		t.Fatalf("batch station must forward station events: %+v", log)
	}
}
