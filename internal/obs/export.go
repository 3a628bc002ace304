package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Exporters. All output is deterministic: runs are emitted in
// Collector.Runs order, spans and samples in recording order, and all
// numbers are formatted by exact integer math or strconv's shortest
// round-trip form — no map iteration, no wall-clock timestamps.
//
// Every exporter appends its bytes into one exportBuf and hands the
// buffer to the writer each time it passes flushAt bytes, so an export
// holds about 64 KiB of its output at a time, whatever the document's
// size, and formats every number with strconv's Append functions.

// flushAt is the buffered output an export hands to its writer at once.
const flushAt = 64 << 10

// exportBuf is one export's reused output buffer and its writer.
type exportBuf struct {
	w io.Writer
	b []byte
}

func newExportBuf(w io.Writer) *exportBuf {
	// The slack holds the record that crosses flushAt without growing
	// the buffer.
	return &exportBuf{w: w, b: make([]byte, 0, flushAt+4<<10)}
}

// spill hands the buffer to the writer once it has passed flushAt.
func (x *exportBuf) spill() error {
	if len(x.b) < flushAt {
		return nil
	}
	return x.flush()
}

// flush hands everything buffered to the writer.
func (x *exportBuf) flush() error {
	_, err := x.w.Write(x.b)
	x.b = x.b[:0]
	return err
}

// appendUsec renders a virtual-time instant or duration (ns) as the
// microsecond string Chrome trace viewers expect. Three decimals keep
// nanosecond exactness.
func appendUsec(b []byte, ns int64) []byte {
	u := uint64(ns)
	if ns < 0 {
		b = append(b, '-')
		u = -u
	}
	b = strconv.AppendUint(b, u/1000, 10)
	frac := u % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// appendFloat is the trace's, the CSV's and the profile's float form:
// strconv's shortest 'g'.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONFloat appends v as encoding/json writes a float64: the
// shortest 'f' form, or the shortest 'e' form below 1e-6 and from 1e21
// up with a negative exponent's leading zero dropped (e-07 is e-7).
// v must be finite; see checkFinite.
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, v, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64)
}

// checkFinite fails, as encoding/json does, on a value JSON cannot
// hold: a NaN or an infinity in the named counter, series or metric.
// run is the run the value belongs to, or "" for a registry's metric.
func checkFinite(v float64, run, what, name string) error {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		return nil
	}
	if run == "" {
		return fmt.Errorf("obs: %s %q holds %v, which JSON cannot encode", what, name, v)
	}
	return fmt.Errorf("obs: run %q %s %q holds %v, which JSON cannot encode", run, what, name, v)
}

// appendJSONString appends s as a quoted JSON string, escaped as
// encoding/json escapes it: HTML characters, control bytes and U+2028
// and U+2029 escaped, invalid UTF-8 replaced. Exporters quote a name
// once per run or series, never per event.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// appendCSVField appends s as one RFC 4180 field: quoted, with its
// quotes doubled, when it holds a comma, a quote, CR or LF, and as it
// is otherwise.
func appendCSVField(b []byte, s string) []byte {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return append(b, s...)
	}
	b = append(b, '"')
	b = append(b, strings.ReplaceAll(s, `"`, `""`)...)
	return append(b, '"')
}

// ErrSpansDropped is WriteTrace's error for a collector that did not
// keep the spans a trace is made of: EnableTrace was not called before
// the runs' recorders were made, so those recorders only counted their
// spans.
var ErrSpansDropped = errors.New("obs: spans were not kept for a trace (call EnableTrace before recording)")

// WriteTrace emits the Chrome trace-event JSON form of every attached
// run, loadable in Perfetto or chrome://tracing. It returns
// ErrSpansDropped, and writes nothing, unless EnableTrace came before
// NewRecorder for every attached run.
//
// Layout: each run is a process (pid in export order) whose name is the
// run label. Its spans are async events ("b"/"e") on the requests
// thread (tid 1), grouped by their root span's ID so concurrent
// requests nest correctly; and every metric series becomes a counter
// ("C") track. A NaN or infinite sample is an error, and nothing more is
// written once it is found.
func (c *Collector) WriteTrace(w io.Writer) error {
	if err := c.spansKept(); err != nil {
		return err
	}
	x := newExportBuf(w)
	x.b = append(x.b, `{"displayTimeUnit":"ns","traceEvents":[`...)
	// Every event after the first is preceded by a comma.
	sep := "\n"
	// tails holds, for each span name of the run, the part of its events
	// from the pid up to the timestamp; name i's runs from tailAt[i] to
	// tailAt[i+1]. head is a series' counter events up to the timestamp.
	// Both are built once per run or series and reused.
	var tails, head []byte
	var tailAt []int
	for pi, rec := range c.Runs() {
		pid := int64(pi + 1)
		x.b = append(x.b, sep...)
		sep = ",\n"
		x.b = append(x.b, `{"ph":"M","pid":`...)
		x.b = strconv.AppendInt(x.b, pid, 10)
		x.b = append(x.b, `,"name":"process_name","args":{"name":`...)
		x.b = appendJSONString(x.b, rec.label)
		x.b = append(x.b, "}},\n"...)
		x.b = append(x.b, `{"ph":"M","pid":`...)
		x.b = strconv.AppendInt(x.b, pid, 10)
		x.b = append(x.b, `,"name":"process_sort_index","args":{"sort_index":`...)
		x.b = strconv.AppendInt(x.b, pid, 10)
		x.b = append(x.b, "}}"...)
		// The requests thread is named only for a run that recorded a
		// span.
		if rec.nspans > 0 {
			x.b = append(x.b, ",\n"...)
			x.b = append(x.b, `{"ph":"M","pid":`...)
			x.b = strconv.AppendInt(x.b, pid, 10)
			x.b = append(x.b, `,"tid":1,"name":"thread_name","args":{"name":`...)
			x.b = appendJSONString(x.b, TrackRequests)
			x.b = append(x.b, "}}"...)
		}
		tails, tailAt = tails[:0], append(tailAt[:0], 0)
		for _, name := range rec.names {
			tails = append(tails, `","pid":`...)
			tails = strconv.AppendInt(tails, pid, 10)
			tails = append(tails, `,"tid":1,"name":`...)
			tails = appendJSONString(tails, name)
			tails = append(tails, `,"ts":`...)
			tailAt = append(tailAt, len(tails))
		}
		for i := 0; i < rec.nspans; i++ {
			sp := rec.spanAt(i)
			end := sp.end
			if end == openEnd {
				end = sp.start
			}
			tail := tails[tailAt[sp.name]:tailAt[int(sp.name)+1]]
			// Async pair keyed by the request's root span so every stage
			// of one request lands on one nested track.
			group := SpanID(i + 1)
			if sp.parent != 0 {
				group = sp.parent
			}
			x.b = append(x.b, ",\n"+`{"ph":"b","cat":"request","id":"0x`...)
			x.b = strconv.AppendUint(x.b, uint64(group), 16)
			x.b = append(x.b, tail...)
			x.b = appendUsec(x.b, int64(sp.start))
			x.b = append(x.b, "},\n"+`{"ph":"e","cat":"request","id":"0x`...)
			x.b = strconv.AppendUint(x.b, uint64(group), 16)
			x.b = append(x.b, tail...)
			x.b = appendUsec(x.b, int64(end))
			x.b = append(x.b, '}')
			if err := x.spill(); err != nil {
				return err
			}
		}
		for _, s := range rec.Series() {
			head = append(head[:0], ",\n"+`{"ph":"C","pid":`...)
			head = strconv.AppendInt(head, pid, 10)
			head = append(head, `,"name":`...)
			head = appendJSONString(head, s.Name)
			head = append(head, `,"ts":`...)
			for i, t := range s.Times {
				v := s.Values[i]
				if err := checkFinite(v, rec.label, "series", s.Name); err != nil {
					return err
				}
				x.b = append(x.b, head...)
				x.b = appendUsec(x.b, int64(t))
				x.b = append(x.b, `,"args":{"value":`...)
				x.b = appendFloat(x.b, v)
				x.b = append(x.b, "}}"...)
				if err := x.spill(); err != nil {
					return err
				}
			}
		}
	}
	x.b = append(x.b, "\n]}\n"...)
	return x.flush()
}

// WriteMetricsCSV dumps every sampled series as CSV with the columns
// run,series,unit,period_ns,time_ns,value. A label, name or unit that
// holds a comma, a quote, CR or LF is quoted as RFC 4180 requires.
func (c *Collector) WriteMetricsCSV(w io.Writer) error {
	x := newExportBuf(w)
	x.b = append(x.b, "run,series,unit,period_ns,time_ns,value\n"...)
	var prefix []byte
	for _, rec := range c.Runs() {
		for _, s := range rec.Series() {
			prefix = appendCSVField(prefix[:0], rec.label)
			prefix = append(prefix, ',')
			prefix = appendCSVField(prefix, s.Name)
			prefix = append(prefix, ',')
			prefix = appendCSVField(prefix, s.Unit)
			prefix = append(prefix, ',')
			prefix = strconv.AppendInt(prefix, int64(s.Period), 10)
			prefix = append(prefix, ',')
			for i, t := range s.Times {
				x.b = append(x.b, prefix...)
				x.b = strconv.AppendInt(x.b, int64(t), 10)
				x.b = append(x.b, ',')
				x.b = appendFloat(x.b, s.Values[i])
				x.b = append(x.b, '\n')
				if err := x.spill(); err != nil {
					return err
				}
			}
		}
	}
	return x.flush()
}

// The JSON documents below are laid out as encoding/json's Encoder with
// SetIndent("", " ") lays them out: one member or element per line,
// indented one space per level, a space after each colon, and a
// trailing newline. An empty run, series or sample list is null, and a
// run without counters has no counters member.

// WriteMetricsJSON dumps the same data as WriteMetricsCSV, plus the
// per-run counters, as one JSON document. A NaN or infinite sample or
// counter is an error, and nothing more is written once it is found.
func (c *Collector) WriteMetricsJSON(w io.Writer) error {
	x := newExportBuf(w)
	runs := c.Runs()
	if len(runs) == 0 {
		x.b = append(x.b, "{\n \"runs\": null\n}\n"...)
		return x.flush()
	}
	x.b = append(x.b, "{\n \"runs\": ["...)
	for ri, rec := range runs {
		if ri > 0 {
			x.b = append(x.b, ',')
		}
		x.b = append(x.b, "\n  {\n   \"run_id\": "...)
		x.b = strconv.AppendUint(x.b, rec.runID, 10)
		x.b = append(x.b, ",\n   \"label\": "...)
		x.b = appendJSONString(x.b, rec.label)
		x.b = append(x.b, ",\n   \"series\": "...)
		if err := x.appendSeries(rec.label, rec.Series()); err != nil {
			return err
		}
		if err := x.appendCounters(rec.label, rec.Manifest().Counters, 3); err != nil {
			return err
		}
		x.b = append(x.b, "\n  }"...)
	}
	x.b = append(x.b, "\n ]\n}\n"...)
	return x.flush()
}

// appendSeries appends a run's series list, the value of its metrics
// JSON "series" member.
func (x *exportBuf) appendSeries(run string, series []*Series) error {
	if len(series) == 0 {
		x.b = append(x.b, "null"...)
		return nil
	}
	x.b = append(x.b, '[')
	for si, s := range series {
		if si > 0 {
			x.b = append(x.b, ',')
		}
		x.b = append(x.b, "\n    {\n     \"name\": "...)
		x.b = appendJSONString(x.b, s.Name)
		x.b = append(x.b, ",\n     \"unit\": "...)
		x.b = appendJSONString(x.b, s.Unit)
		x.b = append(x.b, ",\n     \"period_ns\": "...)
		x.b = strconv.AppendInt(x.b, int64(s.Period), 10)
		x.b = append(x.b, ",\n     \"samples\": "...)
		if len(s.Times) == 0 {
			x.b = append(x.b, "null"...)
		} else {
			x.b = append(x.b, '[')
			for i, t := range s.Times {
				v := s.Values[i]
				if err := checkFinite(v, run, "series", s.Name); err != nil {
					return err
				}
				if i > 0 {
					x.b = append(x.b, ',')
				}
				x.b = append(x.b, "\n      [\n       "...)
				x.b = strconv.AppendInt(x.b, int64(t), 10)
				x.b = append(x.b, ",\n       "...)
				x.b = appendJSONFloat(x.b, v)
				x.b = append(x.b, "\n      ]"...)
				if err := x.spill(); err != nil {
					return err
				}
			}
			x.b = append(x.b, "\n     ]"...)
		}
		x.b = append(x.b, "\n    }"...)
	}
	x.b = append(x.b, "\n   ]"...)
	return nil
}

// WriteManifests dumps the per-run manifests as indented JSON. A NaN or
// infinite counter is an error, and nothing more is written once it is
// found.
func (c *Collector) WriteManifests(w io.Writer) error {
	x := newExportBuf(w)
	ms := c.Manifests()
	if len(ms) == 0 {
		x.b = append(x.b, "[]\n"...)
		return x.flush()
	}
	x.b = append(x.b, '[')
	for i, m := range ms {
		if i > 0 {
			x.b = append(x.b, ',')
		}
		x.b = append(x.b, "\n {\n  \"run_id\": "...)
		x.b = strconv.AppendUint(x.b, m.RunID, 10)
		x.b = append(x.b, ",\n  \"label\": "...)
		x.b = appendJSONString(x.b, m.Label)
		for _, f := range [...]struct {
			key string
			v   int
		}{{"requests", m.Requests}, {"spans", m.Spans}, {"open_spans", m.OpenSpans}, {"series", m.Series}, {"samples", m.Samples}} {
			x.b = append(x.b, ",\n  \""...)
			x.b = append(x.b, f.key...)
			x.b = append(x.b, "\": "...)
			x.b = strconv.AppendInt(x.b, int64(f.v), 10)
		}
		if err := x.appendCounters(m.Label, m.Counters, 2); err != nil {
			return err
		}
		x.b = append(x.b, "\n }"...)
		if err := x.spill(); err != nil {
			return err
		}
	}
	x.b = append(x.b, "\n]\n"...)
	return x.flush()
}

// appendCounters appends a run's counters as the "counters" member of
// an object whose members sit depth levels deep, or nothing when there
// are none (the member's omitempty).
func (x *exportBuf) appendCounters(run string, cs []Counter, depth int) error {
	if len(cs) == 0 {
		return nil
	}
	const spaces = "\n      "
	member, elem, field := spaces[:1+depth], spaces[:2+depth], spaces[:3+depth]
	x.b = append(x.b, ',')
	x.b = append(x.b, member...)
	x.b = append(x.b, `"counters": [`...)
	for i, cn := range cs {
		if err := checkFinite(cn.Value, run, "counter", cn.Name); err != nil {
			return err
		}
		if i > 0 {
			x.b = append(x.b, ',')
		}
		x.b = append(x.b, elem...)
		x.b = append(x.b, '{')
		x.b = append(x.b, field...)
		x.b = append(x.b, `"name": `...)
		x.b = appendJSONString(x.b, cn.Name)
		x.b = append(x.b, ',')
		x.b = append(x.b, field...)
		x.b = append(x.b, `"value": `...)
		x.b = appendJSONFloat(x.b, cn.Value)
		x.b = append(x.b, elem...)
		x.b = append(x.b, '}')
	}
	x.b = append(x.b, member...)
	x.b = append(x.b, ']')
	return x.spill()
}
