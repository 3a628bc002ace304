package match

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// mustMatcher is NewMatcher for the tests' compiled-in sets.
func mustMatcher(patterns []string) *Matcher {
	m, err := NewMatcher(patterns)
	if err != nil {
		panic(err)
	}
	return m
}

func TestBasicMatches(t *testing.T) {
	m := mustMatcher([]string{"he", "she", "his", "hers"})
	got := m.Scan([]byte("ushers"))
	// "ushers": she@4, he@4, hers@6.
	want := []Match{{Pattern: 1, End: 4}, {Pattern: 0, End: 4}, {Pattern: 3, End: 6}}
	if len(got) != len(want) {
		t.Fatalf("matches = %v, want %v", got, want)
	}
	sortMatches(got)
	sortMatches(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matches = %v, want %v", got, want)
		}
	}
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
}

func TestNoMatch(t *testing.T) {
	m := mustMatcher([]string{"abc", "def"})
	if got := m.Scan([]byte("xyzuvw")); len(got) != 0 {
		t.Fatalf("scan returned %v on clean input", got)
	}
}

func TestOverlappingPatterns(t *testing.T) {
	m := mustMatcher([]string{"aa", "aaa"})
	got := m.Scan([]byte("aaaa"))
	// aa@2, aa@3+aaa@3, aa@4+aaa@4 => 5 matches.
	if len(got) != 5 {
		t.Fatalf("overlap scan found %d matches, want 5: %v", len(got), got)
	}
}

func TestPatternAtBoundaries(t *testing.T) {
	m := mustMatcher([]string{"start", "end"})
	data := []byte("start middle end")
	got := m.Scan(data)
	if len(got) != 2 {
		t.Fatalf("boundary matches = %v", got)
	}
	if got[0].End != 5 || got[1].End != len(data) {
		t.Fatalf("boundary offsets wrong: %v", got)
	}
}

func TestBinaryPatterns(t *testing.T) {
	m := mustMatcher([]string{string([]byte{0x00, 0xff, 0x7f}), string([]byte{0xde, 0xad})})
	data := []byte{0x01, 0x00, 0xff, 0x7f, 0x02, 0xde, 0xad}
	got := m.Scan(data)
	if len(got) != 2 {
		t.Fatalf("binary scan = %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := NewMatcher(nil); err == nil {
		t.Fatal("empty pattern list accepted")
	}
	if _, err := NewMatcher([]string{"ok", ""}); err == nil {
		t.Fatal("empty pattern accepted")
	}
	m := mustMatcher([]string{"x"})
	if got := m.Scan(nil); len(got) != 0 {
		t.Fatalf("matches %v in empty data", got)
	}
}

func TestDuplicatePatternsBothReported(t *testing.T) {
	m := mustMatcher([]string{"dup", "dup"})
	got := m.Scan([]byte("dup"))
	if len(got) != 2 {
		t.Fatalf("duplicate patterns: %d matches, want 2", len(got))
	}
}

// naiveScan is the ground truth for property testing.
func naiveScan(patterns []string, data []byte) []Match {
	var out []Match
	for pi, p := range patterns {
		for i := 0; i+len(p) <= len(data); i++ {
			if string(data[i:i+len(p)]) == p {
				out = append(out, Match{Pattern: pi, End: i + len(p)})
			}
		}
	}
	return out
}

func TestScanMatchesNaiveProperty(t *testing.T) {
	r := sim.NewRNG(99)
	alphabet := "abc" // small alphabet maximizes overlaps
	randPat := func() string {
		n := 1 + r.Intn(4)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for iter := 0; iter < 300; iter++ {
		np := 1 + r.Intn(6)
		pats := make([]string, np)
		for i := range pats {
			pats[i] = randPat()
		}
		data := make([]byte, r.Intn(64))
		for i := range data {
			data[i] = alphabet[r.Intn(len(alphabet))]
		}
		m := mustMatcher(pats)
		got := m.Scan(data)
		want := naiveScan(pats, data)
		sortMatches(got)
		sortMatches(want)
		if len(got) != len(want) {
			t.Fatalf("iter %d: pats=%q data=%q got %v want %v", iter, pats, data, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: pats=%q data=%q got %v want %v", iter, pats, data, got, want)
			}
		}
	}
}

func TestPaperRuleSetsCompile(t *testing.T) {
	// The three synthesized Snort-style rule sets must compile and find
	// the embedded patterns the payload generator plants.
	for _, name := range []trace.RuleSetName{trace.RuleSetImage, trace.RuleSetFlash, trace.RuleSetExecutable} {
		rs := trace.GenRuleSet(name, 42)
		m := mustMatcher(rs.Patterns)
		if len(m.patterns) != len(rs.Patterns) {
			t.Fatalf("%s: pattern count mismatch", name)
		}
		pg := trace.NewPayloadGen(rs, 7)
		agree := 0
		const n = 3000
		for i := 0; i < n; i++ {
			payload, has := pg.Next(1500)
			if (len(m.Scan(payload)) > 0) == has {
				agree++
			}
		}
		if agree != n {
			t.Fatalf("%s: matcher disagreed with ground truth on %d/%d payloads", name, n-agree, n)
		}
	}
}

func TestStatesGrowWithRules(t *testing.T) {
	img := mustMatcher(trace.GenRuleSet(trace.RuleSetImage, 42).Patterns)
	fla := mustMatcher(trace.GenRuleSet(trace.RuleSetFlash, 42).Patterns)
	if img.States() <= 1 || fla.States() <= 1 {
		t.Fatal("automata too small")
	}
}

func BenchmarkScanMTU(b *testing.B) {
	rs := trace.GenRuleSet(trace.RuleSetExecutable, 42)
	m := mustMatcher(rs.Patterns)
	pg := trace.NewPayloadGen(rs, 7)
	payload, _ := pg.Next(1500)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(payload)
	}
}
