package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Reference exporters: the fmt- and encoding/json-based writers the
// streaming exporters replaced, kept as the byte-for-byte reference
// export_test.go holds them to. The trace and the CSV quote with Go
// syntax here, so they agree with the streaming writers only on names
// whose Go and JSON (or RFC 4180) quoting agree.

func refUsec(ns int64) string {
	sign := ""
	if ns < 0 {
		sign = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", sign, ns/1000, ns%1000)
}

func refFfloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func refWriteTrace(c *Collector, w io.Writer) error {
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
			group := id
			if sp.parent != 0 {
				group = sp.parent
			}
			emit(fmt.Sprintf(`{"ph":"b","cat":"request","id":"0x%x","pid":%d,"tid":1,"name":%s,"ts":%s}`,
				uint32(group), pid, name, refUsec(int64(sp.start))))
			emit(fmt.Sprintf(`{"ph":"e","cat":"request","id":"0x%x","pid":%d,"tid":1,"name":%s,"ts":%s}`,
				uint32(group), pid, name, refUsec(int64(end))))
		}
		for _, s := range rec.Series() {
			name := strconv.Quote(s.Name)
			for i, t := range s.Times {
				emit(fmt.Sprintf(`{"ph":"C","pid":%d,"name":%s,"ts":%s,"args":{"value":%s}}`,
					pid, name, refUsec(int64(t)), refFfloat(s.Values[i])))
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func refWriteMetricsCSV(c *Collector, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString("run,series,unit,period_ns,time_ns,value\n"); err != nil {
		return err
	}
	for _, rec := range c.Runs() {
		label := refCSVField(rec.label)
		for _, s := range rec.Series() {
			prefix := fmt.Sprintf("%s,%s,%s,%d,", label, refCSVField(s.Name), refCSVField(s.Unit), int64(s.Period))
			for i, t := range s.Times {
				fmt.Fprintf(bw, "%s%d,%s\n", prefix, int64(t), refFfloat(s.Values[i]))
			}
		}
	}
	return bw.Flush()
}

func refCSVField(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ',' || s[i] == '"' || s[i] == '\n' {
			return strconv.Quote(s)
		}
	}
	return s
}

type refMetricsSeries struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	PeriodNs int64    `json:"period_ns"`
	Samples  [][2]any `json:"samples"`
}

type refMetricsRun struct {
	RunID    uint64             `json:"run_id"`
	Label    string             `json:"label"`
	Series   []refMetricsSeries `json:"series"`
	Counters []Counter          `json:"counters,omitempty"`
}

func refWriteMetricsJSON(c *Collector, w io.Writer) error {
	var runs []refMetricsRun
	for _, rec := range c.Runs() {
		mr := refMetricsRun{RunID: rec.runID, Label: rec.label, Counters: rec.Manifest().Counters}
		for _, s := range rec.Series() {
			ms := refMetricsSeries{Name: s.Name, Unit: s.Unit, PeriodNs: int64(s.Period)}
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
		Runs []refMetricsRun `json:"runs"`
	}{runs})
}

func refWriteManifests(c *Collector, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(c.Manifests())
}

func refRegistryWriteJSON(r *Registry, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	snap := r.Snapshot()
	for i, mv := range snap {
		fmt.Fprintf(bw, " {\"name\":%q,\"kind\":%q", mv.Name, mv.Kind)
		if mv.Unit != "" {
			fmt.Fprintf(bw, ",\"unit\":%q", mv.Unit)
		}
		fmt.Fprintf(bw, ",\"value\":%s", refFfloat(mv.Value))
		if mv.Count != 0 {
			fmt.Fprintf(bw, ",\"count\":%d", mv.Count)
		}
		if mv.Kind == KindHistogram.String() {
			fmt.Fprintf(bw, ",\"min\":%s,\"max\":%s", refFfloat(mv.Min), refFfloat(mv.Max))
		}
		if i < len(snap)-1 {
			bw.WriteString("},\n")
		} else {
			bw.WriteString("}\n")
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
