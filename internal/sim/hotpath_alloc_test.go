package sim_test

// Dynamic counterpart of the snicvet hotpath analyzer: the //snicvet:hotpath
// functions are statically allocation-free, and this test pins the same
// property at runtime. A closed loop of jobs circulates through a Station,
// a Link, and a flow.Table with a Recorder and an invariant Checker bound
// to each resource through one fan-out, as a checked and recorded run
// wires them; every job also records a span under a label interned at
// setup. Once warm (free lists filled, rings at capacity, metric names
// registered) one simulated event must not allocate at all.
// Frames also circulate on the Link faster than it can carry them, so
// its in-flight ring holds a standing backlog and keeps compacting.

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// fanOut forwards every callback to a resource's bound recorder, then
// its bound checker: the observer a checked and recorded run installs.
type fanOut struct {
	rec *obs.Resource
	chk *invariant.Resource
}

func (f *fanOut) JobQueued(now sim.Time, n int) {
	f.rec.JobQueued(now, n)
	f.chk.JobQueued(now, n)
}

func (f *fanOut) JobStarted(now sim.Time, w sim.Duration) {
	f.rec.JobStarted(now, w)
	f.chk.JobStarted(now, w)
}

func (f *fanOut) JobFinished(start, end sim.Time) {
	f.rec.JobFinished(start, end)
	f.chk.JobFinished(start, end)
}

func (f *fanOut) JobDropped(now sim.Time) {
	f.rec.JobDropped(now)
	f.chk.JobDropped(now)
}

func (f *fanOut) FrameSent(size int, start, done sim.Time, lost bool) {
	f.rec.FrameSent(size, start, done, lost)
	f.chk.FrameSent(size, start, done, lost)
}

func (f *fanOut) BatchFlushed(tasks int, w sim.Duration, now sim.Time) {
	f.rec.BatchFlushed(tasks, w, now)
	f.chk.BatchFlushed(tasks, w, now)
}

// closedLoop is a self-sustaining workload: every completion re-submits
// its job and every delivered frame is re-sent, so the engine never
// drains and every scheduling path (Submit, start, HandleEvent,
// dispatch, Send, the link's ring and compaction, Lookup, RequestInsert,
// completeInsert, evictions) stays hot.
type closedLoop struct {
	eng   *sim.Engine
	st    *sim.Station
	link  *sim.Link
	table *flow.Table
	rec   *obs.Recorder
	chk   *invariant.Checker
	// job labels the span each completed job records.
	job  obs.SpanLabel
	jobs []*sim.Job
	next uint64 // rotating flow ID driving table churn
	// resend re-sends a delivered frame, keeping circulatingFrames on
	// the link.
	resend func()
}

// circulatingFrames is how many 100 ns frames circulate on the 1 µs
// link: 3.2 µs of serialization per 1.1 µs round, so the link always
// has a backlog.
const circulatingFrames = 32

func newClosedLoop(nJobs int) *closedLoop {
	eng := sim.NewEngine()
	cl := &closedLoop{
		eng:  eng,
		st:   sim.NewStation(eng, 2),
		link: sim.NewLink(eng, 100e9, sim.Microsecond),
		table: flow.NewTable(eng, flow.TableConfig{
			Capacity:       8,
			InsertLatency:  2 * sim.Microsecond,
			InsertQueueCap: 4,
			Evict:          flow.EvictLRU,
			ThrashWindow:   sim.Microsecond,
		}),
		rec: obs.NewRecorder(1, "hotpath-alloc"),
		chk: invariant.New("hotpath-alloc"),
	}
	// Wiring: register the station's bounds, bind both observers to
	// each resource by name, and intern the span label, all before the
	// first event.
	cl.chk.RegisterStation("pool", 2, 0, func() (int, int) { return cl.st.Busy(), cl.st.QueueLen() })
	cl.st.Observe(&fanOut{cl.rec.Resource("pool"), cl.chk.Resource("pool")})
	cl.link.Observe(&fanOut{cl.rec.Resource("wire"), cl.chk.Resource("wire")})
	cl.job = cl.rec.Intern("job")
	for i := 0; i < nJobs; i++ {
		j := &sim.Job{Service: 3 * sim.Microsecond}
		// The Done closure is the one allocation in the loop, made here at
		// setup time; steady-state completions reuse it forever.
		j.Done = func(start, end sim.Time) {
			cl.next++
			cl.rec.Record(cl.job, 0, start, end)
			// One hot flow that stays resident (fast-path hits) plus a
			// cyclic cold tail 3× capacity wide (sustained eviction churn).
			if !cl.table.Lookup(1000, end) {
				cl.table.RequestInsert(1000, 1)
			}
			id := cl.next % 24
			if !cl.table.Lookup(id, end) {
				cl.table.RequestInsert(id, 0)
			}
			cl.link.Send(64, nil)
			cl.rec.Count("loop.completions", 1)
			cl.st.Submit(j)
		}
		cl.st.Submit(j)
	}
	cl.resend = func() { cl.link.Send(1250, cl.resend) }
	for i := 0; i < circulatingFrames; i++ {
		cl.link.Send(1250, cl.resend)
	}
	return cl
}

// step fires n events; the closed loop guarantees they exist.
func (cl *closedLoop) step(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !cl.eng.Step() {
			t.Fatal("closed loop drained — workload is not self-sustaining")
		}
	}
}

func TestHotPathZeroAllocs(t *testing.T) {
	cl := newClosedLoop(8)
	// Warm-up: grow the event free list, the station ring, the rule free
	// list and the pending ring to their high-water marks, and register
	// the counter the loop bumps.
	cl.step(t, 20000)

	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 200; i++ {
			if !cl.eng.Step() {
				panic("closed loop drained")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("checked, recorded hot path allocates %.2f times per 200 events, want 0", allocs)
	}
	if err := cl.chk.Err(); err != nil {
		t.Errorf("checker flagged the closed loop: %v", err)
	}
	if cl.rec.SpanCount() == 0 {
		t.Error("recorder recorded no job spans")
	}

	// The loop must actually have exercised the table's churn paths, or
	// the zero above proves nothing about them.
	c := cl.table.Counters()
	if c.Inserts == 0 || c.Evictions == 0 || c.FastHits == 0 || c.Misses == 0 {
		t.Errorf("flow table not exercised: %+v", c)
	}
	if cl.st.Completed() == 0 {
		t.Error("station completed no jobs")
	}
	if cl.link.Utilization() == 0 {
		t.Error("link sent no frames")
	}
	if cl.link.Backlog() <= 0 {
		t.Error("link has no standing backlog")
	}
}

// guardLoop is the failover path's timer pattern: each request arms a
// timeout guard and schedules its completion, and the completion
// disarms the guard before it fires, then issues the next request.
type guardLoop struct {
	eng   *sim.Engine
	guard sim.EventID
	left  int
}

// guardTimeout is a guard's handler; a disarmed guard never runs it.
type guardTimeout struct{}

func (guardTimeout) HandleEvent(any) { panic("a cancelled guard fired") }

func (g *guardLoop) issue() {
	g.guard = g.eng.AfterCall(10*sim.Microsecond, guardTimeout{}, nil)
	g.eng.AfterCall(sim.Microsecond, g, nil)
}

// HandleEvent completes a request.
func (g *guardLoop) HandleEvent(any) {
	g.eng.Cancel(g.guard)
	if g.left--; g.left > 0 {
		g.issue()
	}
}

// Arming and disarming a guard allocates nothing once the engine's free
// list is warm: Cancel marks the guard's record, and the step that
// reaches it recycles it. The cancelled records still queued stay
// bounded by the guard's timeout.
func TestCancelZeroAllocs(t *testing.T) {
	g := &guardLoop{eng: sim.NewEngine()}
	cycle := func() {
		g.left = 100
		g.issue()
		g.eng.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("100 guarded requests allocate %.2f times, want 0", allocs)
	}
	if p := g.eng.Profile(); p.Executed != 22*100 || p.HeapPeak > 12 {
		t.Errorf("profile %+v, want 2,200 completions on a heap of at most 12 records", p)
	}
}

// BenchmarkEngineHotPath reports allocs/op for the same loop, the
// number TestHotPathZeroAllocs holds at zero.
func BenchmarkEngineHotPath(b *testing.B) {
	cl := newClosedLoop(8)
	for i := 0; i < 20000; i++ {
		if !cl.eng.Step() {
			b.Fatal("closed loop drained")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.eng.Step()
	}
}
