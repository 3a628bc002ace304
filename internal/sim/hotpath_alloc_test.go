package sim_test

// Dynamic counterpart of the snicvet hotpath analyzer: the //snicvet:hotpath
// functions are statically allocation-free, and this test pins the same
// property at runtime. A closed loop of jobs circulates through a Station,
// a Link, and a flow.Table with a Recorder installed as the telemetry
// observer; once warm (free lists filled, rings at capacity, metric and
// resource names interned) one simulated event must not allocate at all.
// Frames also circulate on the Link faster than it can carry them, so
// its in-flight ring holds a standing backlog and keeps compacting.

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/sim"
)

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
	jobs  []*sim.Job
	next  uint64 // rotating flow ID driving table churn
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
	}
	cl.st.Observe("pool", cl.rec)
	cl.link.Observe("wire", cl.rec)
	for i := 0; i < nJobs; i++ {
		j := &sim.Job{Service: 3 * sim.Microsecond}
		// The Done closure is the one allocation in the loop, made here at
		// setup time; steady-state completions reuse it forever.
		j.Done = func(start, end sim.Time) {
			cl.next++
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
	// list and the pending ring to their high-water marks, and intern
	// every metric and resource name the observers will touch.
	cl.step(t, 20000)

	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 200; i++ {
			if !cl.eng.Step() {
				panic("closed loop drained")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("telemetry-enabled hot path allocates %.2f times per 200 events, want 0", allocs)
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
	if cl.link.FramesSent() == 0 {
		t.Error("link sent no frames")
	}
	if cl.link.Backlog() <= 0 {
		t.Error("link has no standing backlog")
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
