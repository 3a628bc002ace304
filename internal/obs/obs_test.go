package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestDeriveRunIDStable(t *testing.T) {
	a := DeriveRunID("run|foo|@host-cpu")
	b := DeriveRunID("run|foo|@host-cpu")
	c := DeriveRunID("run|bar|@host-cpu")
	if a != b {
		t.Fatalf("same key gave different IDs: %x vs %x", a, b)
	}
	if a == c {
		t.Fatalf("distinct keys collided: %x", a)
	}
}

func TestSpanOpenCloseAndCounts(t *testing.T) {
	r := NewRecorder(1, "t")
	root := r.Open(TrackRequests, "request", 100)
	child := r.Begin(r.Intern("stage"), root, 110)
	r.Close(child, 150)
	r.Record(r.Intern("stage2"), root, 150, 190)
	r.Close(root, 200)
	if r.SpanCount() != 3 {
		t.Fatalf("SpanCount = %d, want 3", r.SpanCount())
	}
	if r.RootCount() != 1 {
		t.Fatalf("RootCount = %d, want 1", r.RootCount())
	}
	if r.OpenCount() != 0 {
		t.Fatalf("OpenCount = %d, want 0", r.OpenCount())
	}
	// Closing twice, or closing span 0, must be harmless no-ops.
	r.Close(root, 999)
	r.Close(0, 999)
	left := r.Open(TrackRequests, "request", 300) // never closed
	_ = left
	if r.OpenCount() != 1 {
		t.Fatalf("OpenCount after dangling open = %d, want 1", r.OpenCount())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	id := r.Open(TrackRequests, "request", 0)
	if id != 0 {
		t.Fatalf("nil recorder Open = %d, want 0", id)
	}
	r.Close(id, 10)
	r.Gauge("g", "u", 0, func() float64 { return 1 })
	r.SetCount("c", 1)
	r.Count("c", 1)
	if l := r.Intern("request"); l != 0 || r.Begin(l, 0, 0) != 0 || r.Record(l, 0, 0, 1) != 0 {
		t.Fatal("nil recorder interned or recorded a span")
	}
	// Binding yields nil, which run wiring never installs: a typed nil
	// inside an observer interface would defeat the resources' nil check.
	if rs := r.Resource("pool/host"); rs != nil {
		t.Fatalf("nil recorder bound an observer: %+v", rs)
	}
	if r.SpanCount() != 0 || r.SampleCount() != 0 {
		t.Fatal("nil recorder must report zero everything")
	}
}

// A bound resource counts its callbacks into the run's manifest, and
// binding a name twice (a batch engine's station and its batch
// assembly) counts into one resource.
func TestResourceCountsIntoManifest(t *testing.T) {
	r := NewRecorder(1, "t")
	st, batch := r.Resource("engine/rem"), r.Resource("engine/rem")
	if st != batch {
		t.Fatal("binding one name twice gave two resources")
	}
	wire := r.Resource("wire/c2s")
	r.Resource("pcie/up") // bound, never called: no counters
	st.JobQueued(1, 3)
	st.JobStarted(2, 1)
	st.JobFinished(2, 5)
	st.JobDropped(6)
	batch.BatchFlushed(4, 0, 7)
	wire.FrameSent(1500, 0, 1, false)
	wire.FrameSent(64, 1, 2, true)
	got := r.Manifest().Counters
	want := []Counter{
		{"engine/rem.queued", 1}, {"engine/rem.started", 1}, {"engine/rem.finished", 1},
		{"engine/rem.dropped", 1}, {"engine/rem.peak_queue", 3},
		{"engine/rem.batches", 1}, {"engine/rem.batch_tasks", 4},
		{"wire/c2s.frames", 2}, {"wire/c2s.bytes", 1564}, {"wire/c2s.lost_frames", 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest counters %v, want %v", got, want)
	}
	if r.SpanCount() != 0 {
		t.Fatalf("callbacks recorded %d spans", r.SpanCount())
	}
}

func TestSamplerGroupsByPeriod(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(1, "t")
	var fast, slow float64
	r.Gauge("fast", "u", 10, func() float64 { fast++; return fast })
	r.Gauge("slow", "u", 40, func() float64 { slow++; return slow })
	r.StartSampler(eng)
	eng.At(100, func() {}) // model horizon
	eng.Run()
	series := r.Series()
	if len(series) != 2 {
		t.Fatalf("series count = %d, want 2", len(series))
	}
	byName := map[string]*Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	nf, ns := len(byName["fast"].Times), len(byName["slow"].Times)
	// Both sample once at t=0, then at their own cadence to ~t=100.
	if nf < 10 || nf > 12 {
		t.Fatalf("fast samples = %d, want ~11", nf)
	}
	if ns < 3 || ns > 4 {
		t.Fatalf("slow samples = %d, want ~3", ns)
	}
	if byName["fast"].Times[0] != 0 {
		t.Fatalf("first sample at %v, want 0", byName["fast"].Times[0])
	}
}

// The gauges one sampler polls at one period share one time axis: they
// report equal Times held in one slice, capped so that an append
// through one gauge's Times copies instead of writing into the others'.
// A gauge of another period keeps its own axis.
func TestSamplerSharesOneTimeAxisPerPeriod(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	a := r.Gauge("a", "u", 10, func() float64 { return 1 })
	b := r.Gauge("b", "u", 10, func() float64 { return 2 })
	c := r.Gauge("c", "u", 40, func() float64 { return 3 })
	r.StartSampler(eng)
	eng.At(100, func() {}) // model horizon
	eng.Run()
	ta, tb, tc := a.Series().Times, b.Series().Times, c.Series().Times
	if len(ta) < 10 || !reflect.DeepEqual(ta, tb) {
		t.Fatalf("gauges of one period sampled at %v and %v, want the same ≥10 instants", ta, tb)
	}
	if &ta[0] != &tb[0] {
		t.Fatal("gauges of one period hold separate time axes")
	}
	if len(tc) >= len(ta) || tc[1] != 40 {
		t.Fatalf("the 40 ns gauge sampled at %v", tc)
	}
	grown := append(ta, 1000)
	grown[0] = -1
	if ta[0] != 0 || tb[0] != 0 {
		t.Fatal("an append through one gauge's Times wrote into the shared axis")
	}
}

// AddSeries keeps its own copy of the samples it is given.
func TestAddSeriesCopiesSamples(t *testing.T) {
	r := NewRecorder(1, "run")
	times, values := []sim.Time{0, 10}, []float64{5, 6}
	r.AddSeries("imported", "W", 10, times, values)
	times[0], values[0] = 99, 99
	if s := r.Series()[0]; !reflect.DeepEqual(s.Times, []sim.Time{0, 10}) || !reflect.DeepEqual(s.Values, []float64{5, 6}) {
		t.Fatalf("series reads %v/%v after the caller's slices changed", s.Times, s.Values)
	}
}

// A sampled gauge registered after StartSampler would never be polled:
// it panics. A pre-sampled series added when the run ends is allowed.
func TestGaugeAfterSamplerStartPanics(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(1, "run")
	r.Gauge("early", "u", 10, func() float64 { return 1 })
	r.StartSampler(eng)
	eng.At(15, func() {})
	eng.Run()
	r.AddSeries("imported", "W", 10, []sim.Time{0, 10}, []float64{5, 6})
	defer func() {
		if recover() == nil {
			t.Fatal("a gauge registered after StartSampler did not panic")
		}
	}()
	r.Gauge("late", "u", 10, func() float64 { return 2 })
}

// Attach drops a finished run's sampling closures and nothing its
// exports read: every read-out gives the same bytes before and after.
func TestAttachReleasesSamplingClosures(t *testing.T) {
	eng := sim.NewEngine()
	r := fillRecorder(NewRecorder(1, "run"))
	q := 0.0
	r.Gauge("polled/fast", "u", 10, func() float64 { q++; return q })
	r.Gauge("polled/slow", "u", 40, func() float64 { return q / 2 })
	r.StartSampler(eng)
	eng.At(100, func() {}) // model horizon
	eng.Run()

	type readout struct {
		last      []float64
		snapshot  []MetricValue
		manifest  RunManifest
		json, csv string
	}
	read := func(c *Collector) readout {
		var out readout
		for _, name := range r.reg.order {
			if e := r.reg.metrics[name]; e.kind == KindGauge {
				out.last = append(out.last, e.gauge.Last())
			}
		}
		out.snapshot = r.reg.Snapshot()
		out.manifest = r.Manifest()
		var js, csv bytes.Buffer
		if err := c.WriteMetricsJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteMetricsCSV(&csv); err != nil {
			t.Fatal(err)
		}
		out.json, out.csv = js.String(), csv.String()
		return out
	}
	// A collector that holds the live recorder, closures and all.
	live := &Collector{byID: map[uint64]*Recorder{r.runID: r}}
	before := read(live)
	c := NewCollector()
	c.Attach(r)
	for _, name := range r.reg.order {
		if e := r.reg.metrics[name]; e.kind == KindGauge && e.gauge.fn != nil {
			t.Fatalf("gauge %s kept its sampling closure after Attach", name)
		}
	}
	if after := read(c); !reflect.DeepEqual(before, after) {
		t.Fatalf("read-outs changed when Attach released the closures:\nbefore %+v\nafter  %+v", before, after)
	}
}

// buildRecorder makes a deterministic recorder with spans and metrics.
func buildRecorder(id uint64, label string) *Recorder {
	return fillRecorder(NewRecorder(id, label))
}

// fillRecorder records buildRecorder's spans and metrics into r.
func fillRecorder(r *Recorder) *Recorder {
	for i := 0; i < 3; i++ {
		at := sim.Time(i * 1000)
		root := r.Open(TrackRequests, "request", at)
		r.Record(r.Intern("stage"), root, at.Add(10), at.Add(400))
		r.Close(root, at.Add(500))
	}
	r.AddSeries("q", "jobs", 100, []sim.Time{0, 100, 200}, []float64{0, 2, 1})
	r.SetCount("requests.sent", 3)
	return r
}

func TestExportDeterministicUnderAttachOrder(t *testing.T) {
	mk := func(reverse bool) *Collector {
		c := NewCollector()
		c.EnableTrace()
		recs := []*Recorder{
			buildRecorder(7, "run b"),
			buildRecorder(3, "run a"),
			buildRecorder(9, "run a"), // label tie → run-ID order
		}
		if reverse {
			for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
				recs[i], recs[j] = recs[j], recs[i]
			}
		}
		for _, r := range recs {
			c.Attach(r)
		}
		return c
	}
	for _, export := range []struct {
		name  string
		write func(*Collector, *bytes.Buffer) error
	}{
		{"trace", func(c *Collector, b *bytes.Buffer) error { return c.WriteTrace(b) }},
		{"csv", func(c *Collector, b *bytes.Buffer) error { return c.WriteMetricsCSV(b) }},
		{"json", func(c *Collector, b *bytes.Buffer) error { return c.WriteMetricsJSON(b) }},
		{"manifests", func(c *Collector, b *bytes.Buffer) error { return c.WriteManifests(b) }},
	} {
		var fwd, rev bytes.Buffer
		if err := export.write(mk(false), &fwd); err != nil {
			t.Fatalf("%s: %v", export.name, err)
		}
		if err := export.write(mk(true), &rev); err != nil {
			t.Fatalf("%s: %v", export.name, err)
		}
		if !bytes.Equal(fwd.Bytes(), rev.Bytes()) {
			t.Fatalf("%s export depends on attach order", export.name)
		}
	}
}

// Every export emits a run's series in registration order, whether a
// series was polled (Gauge) or imported (AddSeries), and counters
// written between registrations take no place in it. The names are
// registered out of name order, so a name-sorted export would fail.
func TestExportsEmitSeriesInRegistrationOrder(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(1, "run")
	r.Count("c/first", 1)
	r.Gauge("z/polled", "u", 10, func() float64 { return 1 })
	r.SetCount("b/between", 2)
	r.AddSeries("a/imported", "W", 10, []sim.Time{0, 10}, []float64{5, 6})
	r.Count("y/after", 3)
	r.Gauge("m/polled", "u", 10, func() float64 { return 2 })
	r.StartSampler(eng)
	eng.At(15, func() {}) // model horizon: samples at 0 and 10
	eng.Run()
	c := NewCollector()
	c.EnableTrace()
	c.Attach(r)
	want := []string{"z/polled", "a/imported", "m/polled"}

	var names []string
	for _, s := range r.Series() {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Series() = %v, want %v", names, want)
	}
	if m := r.Manifest(); m.Series != 3 || m.Samples != 6 {
		t.Fatalf("manifest series/samples = %d/%d, want 3/6", m.Series, m.Samples)
	}

	// firstSeen keeps each name at its first appearance.
	firstSeen := func(all []string) []string {
		var out []string
		seen := map[string]bool{}
		for _, n := range all {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
		return out
	}

	var csv bytes.Buffer
	if err := c.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(csv.String()), "\n")[1:] {
		rows = append(rows, strings.Split(line, ",")[1])
	}
	if got := firstSeen(rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("CSV series order %v, want %v", got, want)
	}

	var js bytes.Buffer
	if err := c.WriteMetricsJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Series []struct {
				Name string `json:"name"`
			} `json:"series"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names = nil
	for _, s := range doc.Runs[0].Series {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("metrics JSON series order %v, want %v", names, want)
	}

	var tr bytes.Buffer
	if err := c.WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(tr.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	names = nil
	for _, ev := range trace.TraceEvents {
		if ev["ph"] == "C" {
			names = append(names, ev["name"].(string))
		}
	}
	if got := firstSeen(names); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace counter track order %v, want %v", got, want)
	}
}

func TestAttachDeduplicatesByRunID(t *testing.T) {
	c := NewCollector()
	c.Attach(buildRecorder(5, "x"))
	c.Attach(buildRecorder(5, "x")) // racing worker of the same memo key
	ms := c.Manifests()
	if len(ms) != 1 || ms[0].Requests != 3 || ms[0].Spans != 6 {
		t.Fatalf("manifests = %+v, want one run of 3 requests and 6 spans", ms)
	}
}

func TestTraceIsValidChromeJSON(t *testing.T) {
	c := NewCollector()
	c.EnableTrace()
	c.Attach(buildRecorder(1, "run"))
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []map[string]any
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var begins, ends, counters, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "b":
			begins++
		case "e":
			ends++
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	// 3 requests + 3 stages as async begin/end pairs; 3 counter samples.
	if begins != 6 || ends != 6 {
		t.Fatalf("async pairs = %d/%d, want 6/6", begins, ends)
	}
	if counters != 3 {
		t.Fatalf("counter events = %d, want 3", counters)
	}
	if meta == 0 {
		t.Fatal("expected process/thread metadata events")
	}
}

func TestMetricsCSVShape(t *testing.T) {
	c := NewCollector()
	c.Attach(buildRecorder(1, "run one"))
	var buf bytes.Buffer
	if err := c.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "run,series,unit,period_ns,time_ns,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 { // header + 3 samples
		t.Fatalf("line count = %d, want 4:\n%s", len(lines), buf.String())
	}
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != 6 {
			t.Fatalf("row %q has %d fields, want 6", l, got)
		}
	}
}

func TestManifestCounts(t *testing.T) {
	c := NewCollector()
	r := buildRecorder(2, "m")
	r.Open(TrackRequests, "request", 5000) // dangling
	c.Attach(r)
	ms := c.Manifests()
	if len(ms) != 1 {
		t.Fatalf("manifest count = %d", len(ms))
	}
	m := ms[0]
	if m.Requests != 4 || m.Spans != 7 || m.OpenSpans != 1 {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Series != 1 || m.Samples != 3 {
		t.Fatalf("series/samples = %d/%d, want 1/3", m.Series, m.Samples)
	}
	found := false
	for _, cn := range m.Counters {
		if cn.Name == "requests.sent" && cn.Value == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("explicit counter missing: %+v", m.Counters)
	}
}
