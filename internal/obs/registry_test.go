package obs

import (
	"bytes"
	"testing"
)

// The registry is the substrate every counter and gauge in the repo now
// sits on, so its contract is pinned directly: handles are retrieved by
// name, a name holds one kind, and exports are byte-stable.

func TestRegistryTypedHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs", "reqs")
	c.Add(2)
	c.Add(3)
	if c.Value() != 5 {
		t.Fatalf("counter = %v, want 5", c.Value())
	}
	if again := r.Counter("reqs", "reqs"); again != c {
		t.Fatal("re-registering a counter returned a different handle")
	}

	h := r.Histogram("depth", "events")
	for _, v := range []float64{1, 3, 100} {
		h.Observe(v)
	}

	g := r.Gauge("load", "frac", 0, func() float64 { return 0.5 })
	if g.Series() == nil || g.Series().Period != DefaultSamplePeriod {
		t.Fatalf("gauge series not defaulted: %+v", g.Series())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot holds %d metrics, want 3", len(snap))
	}
	if mv := snap[0]; mv.Name != "depth" || mv.Kind != "histogram" ||
		mv.Count != 3 || mv.Min != 1 || mv.Max != 100 || mv.Value != 104 {
		t.Fatalf("histogram = %+v, want count 3 min 1 max 100 sum 104", mv)
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		err, ok := recover().(*KindMismatchError)
		if !ok {
			t.Fatal("registering one name under two kinds did not panic with a *KindMismatchError")
		}
		if err.Name != "x" || err.Have != KindCounter || err.Want != KindHistogram {
			t.Fatalf("mismatch = %+v, want x held as a counter, asked for as a histogram", err)
		}
	}()
	r.Histogram("x", "")
}

// exportBytes renders a registry through the deterministic JSON writer.
func exportBytes(t *testing.T, r *Registry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Add(1)
	r.Gauge("b", "", 0, nil).Series()
	r.Histogram("c", "").Observe(1)
	if r.Snapshot() != nil || r.series() != nil {
		t.Fatal("nil registry is not empty")
	}
	r.StartSampler(nil)
	r.EachCounter(func(string, *CounterMetric) { t.Fatal("nil registry yielded a counter") })
}

func TestRegistryWriteJSONStable(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		// Register in an order that differs from the sorted export order.
		r.Counter("z/last", "n").Add(1)
		r.Histogram("m/mid", "us").Observe(3)
		r.Counter("a/first", "n").Add(2.5)
		return r
	}
	a, b := exportBytes(t, mk()), exportBytes(t, mk())
	if !bytes.Equal(a, b) {
		t.Fatal("two identical registries exported differently")
	}
	want := "[\n" +
		" {\"name\":\"a/first\",\"kind\":\"counter\",\"unit\":\"n\",\"value\":2.5},\n" +
		" {\"name\":\"m/mid\",\"kind\":\"histogram\",\"unit\":\"us\",\"value\":3,\"count\":1,\"min\":3,\"max\":3},\n" +
		" {\"name\":\"z/last\",\"kind\":\"counter\",\"unit\":\"n\",\"value\":1}\n" +
		"]\n"
	if string(a) != want {
		t.Fatalf("export:\n%s\nwant:\n%s", a, want)
	}
}
