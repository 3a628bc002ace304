package kvstore

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestStoreSetGet(t *testing.T) {
	s := NewStore()
	s.Set("k1", []byte("v1"))
	v, ok := s.Get("k1")
	if !ok || string(v) != "v1" {
		t.Fatalf("get = %q,%v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("phantom key")
	}
	if s.Gets() != 2 || s.Hits() != 1 || s.Sets() != 1 {
		t.Fatalf("counters: gets=%d hits=%d sets=%d", s.Gets(), s.Hits(), s.Sets())
	}
}

func TestStoreSetCopies(t *testing.T) {
	s := NewStore()
	buf := []byte("original")
	s.Set("k", buf)
	buf[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "original" {
		t.Fatal("store aliased caller's buffer")
	}
}

func TestStoreWorkingSetTracksOverwrites(t *testing.T) {
	s := NewStore()
	s.Set("k", make([]byte, 1000))
	ws1 := s.WorkingSetBytes()
	s.Set("k", make([]byte, 10))
	if s.WorkingSetBytes() >= ws1 {
		t.Fatal("overwrite with smaller value must shrink working set")
	}
	if s.Len() != 1 {
		t.Fatal("overwrite duplicated record")
	}
}

func TestCommandWireRoundTrip(t *testing.T) {
	for _, c := range []Command{
		{Op: OpGet, Key: "user0000000001"},
		{Op: OpSet, Key: "k", Value: []byte("hello")},
		{Op: OpSet, Key: "empty-value", Value: nil},
	} {
		got, err := DecodeCommand(EncodeCommand(c))
		if err != nil {
			t.Fatalf("decode(%+v): %v", c, err)
		}
		if got.Op != c.Op || got.Key != c.Key || !bytes.Equal(got.Value, c.Value) {
			t.Fatalf("round trip: %+v -> %+v", c, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		nil, {1, 2}, {'X', 0, 1, 'k', 0, 0, 0, 0},
		EncodeCommand(Command{Op: OpSet, Key: "k", Value: []byte("v")})[:8],
	} {
		if _, err := DecodeCommand(b); err == nil {
			t.Fatalf("decoded garbage %v", b)
		}
	}
}

func TestServeWireFullPath(t *testing.T) {
	s := NewStore()
	resp, err := s.ServeWire(EncodeCommand(Command{Op: OpSet, Key: "a", Value: []byte("val")}))
	if err != nil || resp[0] != '+' {
		t.Fatalf("set resp = %v, %v", resp, err)
	}
	resp, err = s.ServeWire(EncodeCommand(Command{Op: OpGet, Key: "a"}))
	if err != nil || resp[0] != '+' || string(resp[5:]) != "val" {
		t.Fatalf("get resp = %v, %v", resp, err)
	}
	resp, _ = s.ServeWire(EncodeCommand(Command{Op: OpGet, Key: "nope"}))
	if resp[0] != '-' {
		t.Fatal("miss must return '-' status")
	}
}

// Property: any encode/decode pair is identity for printable keys.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(key string, value []byte, isSet bool) bool {
		if len(key) == 0 || len(key) > 60000 {
			return true
		}
		op := OpGet
		if isSet {
			op = OpSet
		} else {
			value = nil
		}
		c := Command{Op: op, Key: key, Value: value}
		got, err := DecodeCommand(EncodeCommand(c))
		return err == nil && got.Key == key && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestYCSBDrivesStore(t *testing.T) {
	// End-to-end functional run of the paper's Redis setup: load 30K
	// records, run 10K ops of workload A through the wire protocol.
	s := NewStore()
	g := trace.NewYCSBGen(trace.WorkloadA, trace.PaperRecords, trace.PaperValueSize, 42)
	val := make([]byte, trace.PaperValueSize)
	for _, k := range g.LoadKeys() {
		s.Set(k, val)
	}
	if s.Len() != trace.PaperRecords {
		t.Fatalf("loaded %d records", s.Len())
	}
	misses := 0
	for i := 0; i < 10_000; i++ {
		op := g.Next()
		var c Command
		if op.Type == trace.OpRead {
			c = Command{Op: OpGet, Key: op.Key}
		} else {
			c = Command{Op: OpSet, Key: op.Key, Value: op.Value}
		}
		resp, err := s.ServeWire(EncodeCommand(c))
		if err != nil {
			t.Fatal(err)
		}
		if resp[0] == '-' {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("%d misses on a fully loaded keyspace", misses)
	}
}

func TestMICAPartitioning(t *testing.T) {
	m := NewMICA(8)
	if m.NumPartitions() != 8 {
		t.Fatal("partition count")
	}
	for i := 0; i < 8000; i++ {
		m.Set(trace.Key(uint64(i)), []byte("v"))
	}
	lens := m.PartitionLens()
	for i, l := range lens {
		if l < 500 || l > 1500 {
			t.Fatalf("partition %d holds %d records: badly unbalanced %v", i, l, lens)
		}
	}
	if m.Len() != 8000 {
		t.Fatalf("total = %d", m.Len())
	}
}

func TestMICAPartitionStable(t *testing.T) {
	m := NewMICA(8)
	for i := 0; i < 100; i++ {
		k := trace.Key(uint64(i))
		if m.Partition(k) != m.Partition(k) {
			t.Fatal("partition function unstable")
		}
	}
}

func TestMICAGetBatch(t *testing.T) {
	m := NewMICA(4)
	m.Set("a", []byte("1"))
	m.Set("b", []byte("2"))
	out := m.GetBatch([]string{"a", "missing", "b"})
	if string(out[0]) != "1" || out[1] != nil || string(out[2]) != "2" {
		t.Fatalf("batch = %q", out)
	}
	if m.Gets() != 3 || m.Hits() != 2 {
		t.Fatalf("counters gets=%d hits=%d", m.Gets(), m.Hits())
	}
	if hr := m.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate = %v", hr)
	}
}

func TestMICA100PercentGetWorkload(t *testing.T) {
	// The paper runs MICA with a 100% GET workload: after load, batched
	// GETs over the loaded keyspace must all hit.
	m := NewMICA(8)
	g := trace.NewYCSBGen(trace.WorkloadC, 10000, 64, 9)
	for _, k := range g.LoadKeys() {
		m.Set(k, []byte("value"))
	}
	for _, batchSize := range []int{4, 32} { // Table 3's batch sizes
		batch := make([]string, batchSize)
		for i := 0; i < 100; i++ {
			for j := range batch {
				batch[j] = g.Next().Key
			}
			for _, v := range m.GetBatch(batch) {
				if v == nil {
					t.Fatal("miss in 100% GET workload over loaded keys")
				}
			}
		}
	}
	if m.HitRate() != 1.0 {
		t.Fatalf("hit rate = %v, want 1.0", m.HitRate())
	}
}

func TestMICABadPartitionsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero partitions did not panic")
		}
	}()
	NewMICA(0)
}
