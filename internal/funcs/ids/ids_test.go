package ids

import (
	"testing"

	"repro/internal/trace"
)

func TestDetectionVsPrevention(t *testing.T) {
	rs := &trace.RuleSet{Name: "t", Patterns: []string{"evil"}, MatchDensity: 1}
	det, err := NewEngine("det", rs, Detection)
	if err != nil {
		t.Fatal(err)
	}
	prev, _ := NewEngine("prev", rs, Prevention)

	if v := det.Inspect(1, []byte("an evil payload")); v != Alert {
		t.Fatalf("detection verdict = %v, want alert", v)
	}
	if v := prev.Inspect(1, []byte("an evil payload")); v != Drop {
		t.Fatalf("prevention verdict = %v, want drop", v)
	}
	if v := det.Inspect(2, []byte("benign")); v != Pass {
		t.Fatalf("clean packet verdict = %v, want pass", v)
	}
	if det.Alerts() != 1 || det.Dropped() != 0 {
		t.Fatalf("detection counters: alerts=%d dropped=%d", det.Alerts(), det.Dropped())
	}
	if prev.Dropped() != 1 {
		t.Fatalf("prevention dropped = %d", prev.Dropped())
	}
}

func TestAlertLogRecordsRuleAndOffset(t *testing.T) {
	rs := &trace.RuleSet{Name: "t", Patterns: []string{"aaa", "bbb"}}
	e, _ := NewEngine("e", rs, Detection)
	e.Inspect(7, []byte("xx bbb yy"))
	log := e.Log()
	if len(log) != 1 {
		t.Fatalf("log has %d entries", len(log))
	}
	if log[0].PacketSeq != 7 || log[0].RuleIndex != 1 {
		t.Fatalf("log entry = %+v", log[0])
	}
	if log[0].Offset != 6 { // "xx bbb" ends at byte 6
		t.Fatalf("offset = %d, want 6", log[0].Offset)
	}
}

func TestLogCapBoundsMemory(t *testing.T) {
	rs := &trace.RuleSet{Name: "t", Patterns: []string{"x"}}
	e, _ := NewEngine("e", rs, Detection)
	e.LogCap = 10
	for i := uint64(0); i < 100; i++ {
		e.Inspect(i, []byte("x"))
	}
	if len(e.Log()) != 10 {
		t.Fatalf("log grew to %d past cap", len(e.Log()))
	}
	if e.Alerts() != 100 {
		t.Fatalf("alerts = %d; counters must keep counting past the cap", e.Alerts())
	}
}

func TestPaperEnginesMatchGroundTruth(t *testing.T) {
	// End-to-end over all three paper rule sets: engine verdicts must
	// agree exactly with the payload generator's ground truth, and the
	// observed alert rate must track each set's match density.
	for _, set := range []trace.RuleSetName{trace.RuleSetImage, trace.RuleSetFlash, trace.RuleSetExecutable} {
		e, err := NewPaperEngine(set, Prevention, 42)
		if err != nil {
			t.Fatal(err)
		}
		pg := trace.NewPayloadGen(e.RuleSet, 9)
		const n = 5000
		for i := 0; i < n; i++ {
			payload, truth := pg.Next(1500)
			got := e.Inspect(uint64(i), payload) == Drop
			if got != truth {
				t.Fatalf("%s: verdict %v != ground truth %v at packet %d", set, got, truth, i)
			}
		}
		rate := float64(e.Alerts()) / n
		want := e.RuleSet.MatchDensity
		if rate < want-0.02 || rate > want+0.02 {
			t.Errorf("%s alert rate = %.3f, want ~%.3f", set, rate, want)
		}
	}
}

func TestRuleSetTablePressureOrdering(t *testing.T) {
	// file_image compiles to the biggest automaton — the table pressure
	// behind its poor host-side scan economics.
	img, _ := NewPaperEngine(trace.RuleSetImage, Detection, 42)
	fla, _ := NewPaperEngine(trace.RuleSetFlash, Detection, 42)
	if img.States() <= fla.States() {
		t.Fatalf("file_image states %d should exceed file_flash %d", img.States(), fla.States())
	}
}

func TestEmptyRuleSetRejected(t *testing.T) {
	if _, err := NewEngine("x", &trace.RuleSet{}, Detection); err == nil {
		t.Fatal("empty rule set accepted")
	}
	if _, err := NewEngine("x", nil, Detection); err == nil {
		t.Fatal("nil rule set accepted")
	}
}

func TestVerdictStrings(t *testing.T) {
	if Pass.String() != "pass" || Alert.String() != "alert" || Drop.String() != "drop" {
		t.Fatal("verdict names wrong")
	}
}

func BenchmarkInspectMTU(b *testing.B) {
	e, _ := NewPaperEngine(trace.RuleSetExecutable, Prevention, 42)
	pg := trace.NewPayloadGen(e.RuleSet, 7)
	payload, _ := pg.Next(1500)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Inspect(uint64(i), payload)
	}
}
