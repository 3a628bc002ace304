package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// The self-profile's metric names, kinds and units are the profile.json
// format, and each name reads the counter its Snapshot field does: a
// misspelt or swapped name would fail here before it moved an export.
func TestProfileMetricNames(t *testing.T) {
	cfg, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	prof := NewProfiler()
	r.SetProfiler(prof)
	opts := RunOpts{Requests: 300, WarmupFrac: 0.1, Seed: 3, OfferedGbps: 0.2}
	r.ForEach(2, func(int) {}) // one fan-out of two tasks
	for i := 0; i < 3; i++ {
		r.Run(cfg, HostCPU, opts) // a miss, then two cache hits
	}

	var buf bytes.Buffer
	if err := prof.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Name, Kind, Unit string
		Value            float64
		Count            uint64
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("profile is not JSON: %v\n%s", err, buf.String())
	}
	type metric struct{ name, kind, unit string }
	want := []metric{
		{"cache/hits", "counter", "lookups"},
		{"cache/misses", "counter", "lookups"},
		{"engine/events", "counter", "events"},
		{"engine/heap_peak", "histogram", "events"},
		{"engine/live_pending_end", "histogram", "events"},
		{"engine/runs", "counter", "runs"},
		{"pool/batches", "counter", "fanouts"},
		{"pool/tasks", "counter", "tasks"},
	}
	var names []metric
	values := map[string]float64{}
	for _, m := range got {
		names = append(names, metric{m.Name, m.Kind, m.Unit})
		values[m.Name] = m.Value
		if m.Kind == "histogram" {
			values[m.Name+".count"] = float64(m.Count)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("profile metrics\n got %v\nwant %v", names, want)
	}

	sp := prof.Snapshot()
	if sp.Runs != 1 || sp.Events == 0 || sp.HeapPeak == 0 || sp.CacheHits != 2 || sp.CacheMisses != 1 ||
		sp.PoolBatches != 1 || sp.PoolTasks != 2 {
		t.Fatalf("snapshot %+v, want 1 run with events, 2 hits, 1 miss and one fan-out of 2", sp)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"cache/hits", sp.CacheHits},
		{"cache/misses", sp.CacheMisses},
		{"engine/events", sp.Events},
		{"engine/runs", sp.Runs},
		{"engine/heap_peak.count", sp.Runs},
		{"engine/live_pending_end.count", sp.Runs},
		{"pool/batches", sp.PoolBatches},
		{"pool/tasks", sp.PoolTasks},
	} {
		if values[c.name] != float64(c.want) {
			t.Errorf("profile %s = %v, Snapshot reads %d", c.name, values[c.name], c.want)
		}
	}
	if values["engine/heap_peak"] != float64(sp.HeapPeak) {
		t.Errorf("engine/heap_peak sum over one run = %v, Snapshot HeapPeak %d", values["engine/heap_peak"], sp.HeapPeak)
	}
}
