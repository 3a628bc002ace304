package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Exporters. All output is deterministic: runs are emitted in
// Collector.Runs order, spans and samples in recording order, and all
// numbers are formatted by exact integer math or strconv's shortest
// round-trip form — no map iteration, no wall-clock timestamps.

// usec renders a virtual-time instant or duration (ns) as the
// microsecond string Chrome trace viewers expect. Three decimals keep
// nanosecond exactness.
func usec(ns int64) string {
	sign := ""
	if ns < 0 {
		sign = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", sign, ns/1000, ns%1000)
}

func ffloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ErrSpansDropped is WriteTrace's error for a collector that did not
// keep the spans a trace is made of: EnableTrace was not called before
// the runs were attached, so their spans went back to the free list.
var ErrSpansDropped = errors.New("obs: spans were not kept for a trace (call EnableTrace before recording)")

// WriteTrace emits the Chrome trace-event JSON form of every attached
// run, loadable in Perfetto or chrome://tracing. It returns
// ErrSpansDropped, and writes nothing, unless EnableTrace came before
// the runs were attached.
//
// Layout: each run is a process (pid in export order) whose name is the
// run label. Its spans are async events ("b"/"e") on the requests
// thread (tid 1), grouped by their root span's ID so concurrent
// requests nest correctly; and every metric series becomes a counter
// ("C") track.
func (c *Collector) WriteTrace(w io.Writer) error {
	if err := c.spansKept(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(s)
	}
	for pi, rec := range c.Runs() {
		pid := pi + 1
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			pid, strconv.Quote(rec.label)))
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}}`,
			pid, pid))
		// The requests thread is named only for a run that recorded a
		// span.
		if rec.nspans > 0 {
			emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":1,"name":"thread_name","args":{"name":%s}}`,
				pid, strconv.Quote(TrackRequests)))
		}
		for i := 0; i < rec.nspans; i++ {
			sp := rec.spanAt(i)
			id := SpanID(i + 1)
			end := sp.end
			if end == openEnd {
				end = sp.start
			}
			name := strconv.Quote(rec.names[sp.name])
			// Async pair keyed by the request's root span so every stage
			// of one request lands on one nested track.
			group := id
			if sp.parent != 0 {
				group = sp.parent
			}
			emit(fmt.Sprintf(`{"ph":"b","cat":"request","id":"0x%x","pid":%d,"tid":1,"name":%s,"ts":%s}`,
				uint32(group), pid, name, usec(int64(sp.start))))
			emit(fmt.Sprintf(`{"ph":"e","cat":"request","id":"0x%x","pid":%d,"tid":1,"name":%s,"ts":%s}`,
				uint32(group), pid, name, usec(int64(end))))
		}
		for _, s := range rec.Series() {
			name := strconv.Quote(s.Name)
			for i, t := range s.Times {
				emit(fmt.Sprintf(`{"ph":"C","pid":%d,"name":%s,"ts":%s,"args":{"value":%s}}`,
					pid, name, usec(int64(t)), ffloat(s.Values[i])))
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteMetricsCSV dumps every sampled series as CSV with the columns
// run,series,unit,period_ns,time_ns,value. Labels avoid commas by
// construction; any embedded comma or quote is CSV-quoted.
func (c *Collector) WriteMetricsCSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString("run,series,unit,period_ns,time_ns,value\n"); err != nil {
		return err
	}
	for _, rec := range c.Runs() {
		label := csvField(rec.label)
		for _, s := range rec.Series() {
			prefix := fmt.Sprintf("%s,%s,%s,%d,", label, csvField(s.Name), csvField(s.Unit), int64(s.Period))
			for i, t := range s.Times {
				fmt.Fprintf(bw, "%s%d,%s\n", prefix, int64(t), ffloat(s.Values[i]))
			}
		}
	}
	return bw.Flush()
}

func csvField(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ',' || s[i] == '"' || s[i] == '\n' {
			return strconv.Quote(s)
		}
	}
	return s
}

// metricsRun / metricsSeries are the JSON metrics shapes.
type metricsSeries struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	PeriodNs int64    `json:"period_ns"`
	Samples  [][2]any `json:"samples"`
}

type metricsRun struct {
	RunID    uint64          `json:"run_id"`
	Label    string          `json:"label"`
	Series   []metricsSeries `json:"series"`
	Counters []Counter       `json:"counters,omitempty"`
}

// WriteMetricsJSON dumps the same data as WriteMetricsCSV, plus the
// per-run counters, as one JSON document.
func (c *Collector) WriteMetricsJSON(w io.Writer) error {
	var runs []metricsRun
	for _, rec := range c.Runs() {
		mr := metricsRun{RunID: rec.runID, Label: rec.label, Counters: rec.Manifest().Counters}
		for _, s := range rec.Series() {
			ms := metricsSeries{Name: s.Name, Unit: s.Unit, PeriodNs: int64(s.Period)}
			for i, t := range s.Times {
				ms.Samples = append(ms.Samples, [2]any{int64(t), s.Values[i]})
			}
			mr.Series = append(mr.Series, ms)
		}
		runs = append(runs, mr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Runs []metricsRun `json:"runs"`
	}{runs})
}

// WriteManifests dumps the per-run manifests as indented JSON.
func (c *Collector) WriteManifests(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(c.Manifests())
}
