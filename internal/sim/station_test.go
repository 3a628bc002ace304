package sim

import (
	"testing"
	"testing/quick"
)

func TestStationSingleServerFIFO(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Submit(&Job{Service: 10, Done: func(_, end Time) { ends = append(ends, end) }})
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("completions %v, want %v", ends, want)
		}
	}
	if s.Completed() != 3 {
		t.Fatalf("completed = %d, want 3", s.Completed())
	}
}

func TestStationParallelServers(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, 4)
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Submit(&Job{Service: 10, Done: func(_, end Time) { ends = append(ends, end) }})
	}
	e.Run()
	for _, end := range ends {
		if end != 10 {
			t.Fatalf("parallel jobs should all finish at t=10, got %v", ends)
		}
	}
}

func TestStationQueueingDelay(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, 2)
	var fifth Time
	for i := 0; i < 5; i++ {
		i := i
		s.Submit(&Job{Service: 10, Done: func(_, end Time) {
			if i == 4 {
				fifth = end
			}
		}})
	}
	e.Run()
	// 5 jobs, 2 servers, 10ns each: waves at 10, 20, 30.
	if fifth != 30 {
		t.Fatalf("fifth job finished at %v, want 30", fifth)
	}
}

func TestStationDropsAtCapacity(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, 1)
	s.Capacity = 2
	accepted := 0
	for i := 0; i < 10; i++ {
		if s.Submit(&Job{Service: 10}) {
			accepted++
		}
	}
	// 1 in service + 2 queued.
	if accepted != 3 {
		t.Fatalf("accepted = %d, want 3", accepted)
	}
	if s.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", s.Dropped())
	}
	e.Run()
	if s.Completed() != 3 {
		t.Fatalf("completed = %d, want 3", s.Completed())
	}
}

func TestStationUtilization(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, 2)
	// One server busy for the whole run => utilization 0.5.
	s.Submit(&Job{Service: 100})
	e.Run()
	if u := s.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

// The queue peak as a bound observer sees it, the way telemetry's
// resource counters track it for manifests.
func TestStationQueuePeak(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, 1)
	var peak peakObs
	s.Observe(&peak)
	for i := 0; i < 5; i++ {
		s.Submit(&Job{Service: 10})
	}
	if peak.max != 4 {
		t.Fatalf("queue peak = %d, want 4", peak.max)
	}
	e.Run()
}

// peakObs keeps the longest queue a station reports.
type peakObs struct {
	obsLog
	max int
}

func (p *peakObs) JobQueued(_ Time, queueLen int) { p.max = max(p.max, queueLen) }

// Property: work conservation — with one server, total completion time of n
// identical jobs equals n * service regardless of submission pattern.
func TestStationWorkConservationProperty(t *testing.T) {
	f := func(nJobs uint8, svc uint16) bool {
		n := int(nJobs%50) + 1
		service := Duration(svc%1000) + 1
		e := NewEngine()
		s := NewStation(e, 1)
		var last Time
		for i := 0; i < n; i++ {
			s.Submit(&Job{Service: service, Done: func(_, end Time) { last = end }})
		}
		e.Run()
		return last == Time(Duration(n)*service)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkSerialization(t *testing.T) {
	e := NewEngine()
	// 1 Gb/s, 100ns propagation. 125-byte frame = 1000 bits = 1000ns.
	l := NewLink(e, 1e9, 100)
	var arrivals []Time
	l.Send(125, func() { arrivals = append(arrivals, e.Now()) })
	l.Send(125, func() { arrivals = append(arrivals, e.Now()) })
	e.Run()
	if arrivals[0] != 1100 || arrivals[1] != 2100 {
		t.Fatalf("arrivals = %v, want [1100 2100]", arrivals)
	}
}

func TestLinkBacklog(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 1e9, 0)
	l.Send(125, nil) // 1000 ns
	l.Send(125, nil) // queued behind
	if bl := l.Backlog(); bl != 2000 {
		t.Fatalf("backlog = %v, want 2000ns", bl)
	}
	e.Run()
	if bl := l.Backlog(); bl != 0 {
		t.Fatalf("backlog after drain = %v, want 0", bl)
	}
}

func TestLinkLineRateSaturation(t *testing.T) {
	e := NewEngine()
	// 100 Gb/s link, MTU frames sent as fast as possible for 1 ms:
	// throughput must be exactly line rate.
	l := NewLink(e, 100e9, 0)
	frames := 0
	var send func()
	send = func() {
		if e.Now() >= Time(Millisecond) {
			return
		}
		l.Send(1500, func() { frames++ })
		e.At(l.freeAt, send)
	}
	e.At(0, send)
	e.Run()
	gbps := float64(frames) * 1500 * 8 / 1e-3 / 1e9
	if gbps < 99 || gbps > 101 {
		t.Fatalf("saturated throughput = %.1f Gb/s, want ~100", gbps)
	}
}

func TestBatchStationFlushBySize(t *testing.T) {
	e := NewEngine()
	b := NewBatchStation(e, 4, Duration(Millisecond), 100)
	var log obsLog
	b.Observe(nil, &log)
	done := 0
	for i := 0; i < 4; i++ {
		b.Submit(&Job{Service: 10, Done: func(_, _ Time) { done++ }})
	}
	e.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
	if log.batches != 1 {
		t.Fatalf("batches = %d, want 1", log.batches)
	}
	// Batch service = 100 + 4*10 = 140.
	if e.Now() != 140 {
		t.Fatalf("finished at %v, want 140", e.Now())
	}
}

func TestBatchStationFlushByTimeout(t *testing.T) {
	e := NewEngine()
	b := NewBatchStation(e, 100, 50, 10)
	var end Time
	b.Submit(&Job{Service: 5, Done: func(_, e2 Time) { end = e2 }})
	e.Run()
	// Waits 50 for companions, then 10+5 service.
	if end != 65 {
		t.Fatalf("end = %v, want 65", end)
	}
}

func TestBatchStationAmortization(t *testing.T) {
	// Throughput with batching must exceed throughput without (batch of 1),
	// because PerBatch overhead is amortized.
	run := func(batch int) Time {
		e := NewEngine()
		b := NewBatchStation(e, batch, 1, 100)
		for i := 0; i < 64; i++ {
			b.Submit(&Job{Service: 10})
		}
		e.Run()
		return e.Now()
	}
	if big, small := run(32), run(1); big >= small {
		t.Fatalf("batch-32 total %v not faster than batch-1 total %v", big, small)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(1000))
	}
	mean := sum / n
	if mean < 950 || mean > 1050 {
		t.Fatalf("Exp mean = %v, want ~1000", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(3)
	z := NewZipf(r, 1000, 0.99)
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be far more popular than rank 500.
	if counts[0] < 10*counts[500]+1 {
		t.Fatalf("Zipf not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1, 100, 1.3)
		if v < 1 || v > 100 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestLogNormalDurPositive(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if d := r.LogNormalDur(1000, 0.3); d <= 0 {
			t.Fatalf("LogNormalDur non-positive: %v", d)
		}
	}
}

func TestStationStallHoldsJobsUntilClear(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, 1)
	s.StallUntil(100)
	var end Time
	s.Submit(&Job{Service: 10, Done: func(_, e2 Time) { end = e2 }})
	e.Run()
	// Start at 0, stalled until 100, then 10 of service.
	if end != 110 {
		t.Fatalf("stalled job finished at %v, want 110", end)
	}
	if s.Stalled() {
		t.Fatal("station still reports stalled after the gate passed")
	}
}
