package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The streaming exporters must write what the exporters in
// exportref_test.go write, byte for byte, on collectors that reach
// every branch: no runs, a run without series, a series without
// samples, a run without counters, open spans, span groups above 2^31,
// negative times, and floats at each of encoding/json's format edges.

// edgeFloats are the floats at the edges of the number formats: zero
// and its sign, encoding/json's 'e' cutoffs at 1e-6 and 1e21, the
// smallest subnormal, a repeating fraction and the largest float.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 1e20, 1e21, 5e-324, 1.0 / 3, math.MaxFloat64,
	-1e-7, -1e21, -2.5, 42, 1e-300, 123456789.125,
}

// sharedText is quoted alike by Go syntax, JSON and RFC 4180, so every
// reference exporter agrees with its streaming replacement on names
// built from it: non-ASCII text, U+2028, a tab and a backslash.
const sharedText = "naïve 日本 µs \u2028 tab\t back\\slash"

// jsonText adds what only the JSON exporters' reference escapes alike:
// HTML characters, a quote, a newline, control bytes, DEL, an invalid
// byte and U+2029.
const jsonText = sharedText + ` <a href="x">&amp;</a>` + "\n\x01\x07\x7f\xff\u2029"

// edgeCollector returns a traced collector whose runs reach every
// exporter branch, named from text.
func edgeCollector(text string) *Collector {
	c := NewCollector()
	c.EnableTrace()

	// Spans, open spans and high span groups; no series, no counters.
	spans := NewRecorder(11, "spans "+text)
	root := spans.Open(TrackRequests, "request "+text, 100)
	spans.Record(spans.Intern("stage"), root, 110, 150)
	spans.Begin(spans.Intern("stage"), root, 160) // open child
	spans.Open(TrackRequests, "request "+text, 1_000_000_007)
	spans.Record(spans.Intern("late"), SpanID(1<<31+5), 2000, 2999)
	spans.Record(spans.Intern("late"), SpanID(math.MaxUint32), 3000, 3001)
	c.Attach(spans)

	// A series without samples beside one holding every edge float at
	// negative, zero and positive times, and counters at the same floats.
	floats := NewRecorder(22, "floats "+text)
	floats.AddSeries("empty "+text, "u", 0, nil, nil)
	times := make([]sim.Time, len(edgeFloats))
	for i := range times {
		times[i] = sim.Time(i*1501 - 3001)
	}
	floats.AddSeries("edges "+text, "unit "+text, 250, times, edgeFloats)
	for i, v := range edgeFloats {
		floats.SetCount("counter/"+string(rune('a'+i))+" "+text, v)
	}
	floats.Resource("pool/"+text).JobQueued(0, 4)
	c.Attach(floats)

	// Nothing at all: no spans, series or counters.
	c.Attach(NewRecorder(33, "bare "+text))
	return c
}

func TestExportsMatchReference(t *testing.T) {
	type exporter struct {
		name      string
		write     func(*Collector, io.Writer) error
		reference func(*Collector, io.Writer) error
	}
	shared := []exporter{
		{"trace", (*Collector).WriteTrace, refWriteTrace},
		{"csv", (*Collector).WriteMetricsCSV, refWriteMetricsCSV},
	}
	jsonOnly := []exporter{
		{"metrics json", (*Collector).WriteMetricsJSON, refWriteMetricsJSON},
		{"manifests", (*Collector).WriteManifests, refWriteManifests},
	}
	empty := NewCollector()
	empty.EnableTrace()
	for _, tc := range []struct {
		name      string
		c         *Collector
		exporters []exporter
	}{
		{"nil", nil, append(shared, jsonOnly...)},
		{"empty", empty, append(shared, jsonOnly...)},
		{"shared text", edgeCollector(sharedText), append(shared, jsonOnly...)},
		{"json text", edgeCollector(jsonText), jsonOnly},
		{"recorded runs", func() *Collector {
			c := NewCollector()
			c.EnableTrace()
			c.Attach(buildRecorder(7, "run b"))
			c.Attach(buildRecorder(3, "run a"))
			return c
		}(), append(shared, jsonOnly...)},
	} {
		for _, e := range tc.exporters {
			var got, want bytes.Buffer
			if err := e.reference(tc.c, &want); err != nil {
				t.Fatalf("%s %s reference: %v", tc.name, e.name, err)
			}
			if err := e.write(tc.c, &got); err != nil {
				t.Fatalf("%s %s: %v", tc.name, e.name, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s %s differs from the reference:\n got %q\nwant %q", tc.name, e.name, got.Bytes(), want.Bytes())
			}
		}
	}
}

// A document longer than the flush threshold is written in pieces that
// join to the reference's bytes.
func TestLongExportsMatchReference(t *testing.T) {
	c := NewCollector()
	c.EnableTrace()
	r := NewRecorder(1, "long")
	stage := r.Intern("stage")
	const n = 20_000
	times, values := make([]sim.Time, n), make([]float64, n)
	for i := range times {
		root := r.Open(TrackRequests, "request", sim.Time(i*1000))
		r.Record(stage, root, sim.Time(i*1000+10), sim.Time(i*1000+400))
		r.Close(root, sim.Time(i*1000+500))
		times[i], values[i] = sim.Time(i*100), float64(i)/7
	}
	r.AddSeries("q", "jobs", 100, times, values)
	c.Attach(r)
	for _, e := range []struct {
		name             string
		write, reference func(*Collector, io.Writer) error
	}{
		{"trace", (*Collector).WriteTrace, refWriteTrace},
		{"csv", (*Collector).WriteMetricsCSV, refWriteMetricsCSV},
		{"metrics json", (*Collector).WriteMetricsJSON, refWriteMetricsJSON},
	} {
		var got, want bytes.Buffer
		if err := e.reference(c, &want); err != nil {
			t.Fatal(err)
		}
		if err := e.write(c, &got); err != nil {
			t.Fatal(err)
		}
		if want.Len() < 4*flushAt {
			t.Fatalf("%s: %d bytes is too short to cross the flush threshold", e.name, want.Len())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s differs from the reference", e.name)
		}
	}
}

func TestRegistryWriteJSONMatchesReference(t *testing.T) {
	full := NewRegistry()
	for i, v := range edgeFloats {
		full.Counter("counter/"+string(rune('a'+i))+" "+sharedText, "unit "+sharedText).Set(v)
	}
	full.Counter("no unit", "").Add(3)
	h := full.Histogram("hist "+sharedText, "us")
	for _, v := range edgeFloats {
		h.Observe(v)
	}
	full.Histogram("hist/empty", "")
	g := full.Gauge("gauge "+sharedText, "jobs", 0, nil).Series()
	g.Times, g.Values = []sim.Time{0, 1}, []float64{1e21, 1.0 / 3}
	full.Gauge("gauge/empty", "", 0, nil)
	for _, tc := range []struct {
		name string
		r    *Registry
	}{{"nil", nil}, {"empty", NewRegistry()}, {"full", full}} {
		var got, want bytes.Buffer
		if err := refRegistryWriteJSON(tc.r, &want); err != nil {
			t.Fatal(err)
		}
		if err := tc.r.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s registry differs from the reference:\n got %q\nwant %q", tc.name, got.Bytes(), want.Bytes())
		}
	}
}

// The metrics JSON streams its samples: writing 100,000 of them
// allocates what writing 10 does, give or take a few buffers.
func TestMetricsJSONAllocationsDoNotGrowWithSamples(t *testing.T) {
	allocs := func(n int) float64 {
		times, values := make([]sim.Time, n), make([]float64, n)
		for i := range times {
			times[i], values[i] = sim.Time(i*100), float64(i)/3+1e6
		}
		r := NewRecorder(1, "run")
		r.AddSeries("q", "jobs", 100, times, values)
		r.SetCount("requests.sent", float64(n))
		c := NewCollector()
		c.Attach(r)
		return testing.AllocsPerRun(3, func() {
			if err := c.WriteMetricsJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(100_000)
	if many > few+4 {
		t.Fatalf("metrics JSON allocations grow with samples: %v for 10, %v for 100,000", few, many)
	}
}

// A value JSON cannot hold is an error, as it is for encoding/json: no
// NaN or Inf token is written, and what was written before the value was
// found is a prefix of the export with the value made finite.
func TestJSONExportsRejectNonFiniteValues(t *testing.T) {
	build := func(samples int, series, counter float64) *Collector {
		times, values := make([]sim.Time, samples), make([]float64, samples)
		for i := range times {
			times[i], values[i] = sim.Time(i), float64(i)
		}
		values[samples-1] = series
		r := NewRecorder(1, "run")
		r.AddSeries("q", "jobs", 1, times, values)
		r.SetCount("c", counter)
		c := NewCollector()
		c.Attach(r)
		return c
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, samples := range []int{3, 20_000} {
			for _, tc := range []struct {
				where           string
				series, counter float64
				exports         []func(*Collector, io.Writer) error
			}{
				{"series", v, 1, []func(*Collector, io.Writer) error{(*Collector).WriteMetricsJSON}},
				{"counter", 1, v, []func(*Collector, io.Writer) error{(*Collector).WriteMetricsJSON, (*Collector).WriteManifests}},
			} {
				for _, write := range tc.exports {
					var got, valid bytes.Buffer
					if err := write(build(samples, tc.series, tc.counter), &got); err == nil {
						t.Fatalf("%v in a %s of %d samples: no error", v, tc.where, samples)
					}
					if bytes.Contains(got.Bytes(), []byte("NaN")) || bytes.Contains(got.Bytes(), []byte("Inf")) {
						t.Fatalf("%v in a %s: wrote a non-finite token", v, tc.where)
					}
					if err := write(build(samples, 1, 1), &valid); err != nil {
						t.Fatal(err)
					}
					if !bytes.HasPrefix(valid.Bytes(), got.Bytes()) {
						t.Fatalf("%v in a %s: wrote bytes past the last full buffer", v, tc.where)
					}
				}
			}
		}
	}
}

// Labels are chosen by callers (fault scenario and fleet class names),
// so every export must carry any label intact: the CSV as RFC 4180
// reads it back, the trace as valid JSON.
func TestCSVQuotesLabelsAsRFC4180(t *testing.T) {
	label := `fault "slow, then dead"` + "\nnext line\r, cr"
	c := NewCollector()
	r := NewRecorder(1, label)
	r.AddSeries(`queue "depth"`, "jobs,frames", 10, []sim.Time{0, 10}, []float64{1, 2})
	c.Attach(r)
	var buf bytes.Buffer
	if err := c.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("encoding/csv rejects the export: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("read %d rows, want a header and 2 samples", len(rows))
	}
	for _, row := range rows[1:] {
		if row[0] != label || row[1] != `queue "depth"` || row[2] != "jobs,frames" {
			t.Fatalf("row %q does not carry the label, name and unit intact", row)
		}
	}
}

func TestTraceEscapesControlBytes(t *testing.T) {
	label := "fault \x01bell\x07 del\x7f bad\xff"
	c := NewCollector()
	c.EnableTrace()
	r := NewRecorder(1, label)
	r.Close(r.Open(TrackRequests, "request"+label, 0), 10)
	r.AddSeries("q"+label, "jobs", 10, []sim.Time{0}, []float64{1})
	c.Attach(r)
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid JSON:\n%q", buf.Bytes())
	}
	var doc struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := strings.ToValidUTF8(label, "\ufffd")
	if got := doc.TraceEvents[0]["args"].(map[string]any)["name"]; got != want {
		t.Fatalf("process name %q, want %q", got, want)
	}
}

// The JSON float writer agrees with encoding/json on floats drawn from
// every exponent.
func TestJSONFloatMatchesEncodingJSON(t *testing.T) {
	rng := sim.NewRNG(1)
	for i := 0; i < 20_000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("float %v: got %s, want %s", v, got, want)
		}
	}
}
