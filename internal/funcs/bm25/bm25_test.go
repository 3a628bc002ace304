package bm25

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func docsFrom(texts ...string) []Document {
	docs := make([]Document, len(texts))
	for i, t := range texts {
		docs[i] = Document{ID: i, Terms: ParseQuery([]byte(t))}
	}
	return docs
}

func TestIDFOrdering(t *testing.T) {
	idx := NewIndex(docsFrom(
		"common rare1 common",
		"common filler filler",
		"common filler other",
	))
	if idx.IDF("rare1") <= idx.IDF("common") {
		t.Fatalf("rare term IDF %v must exceed common term IDF %v",
			idx.IDF("rare1"), idx.IDF("common"))
	}
	if idx.IDF("common") < 0 {
		t.Fatal("IDF must be non-negative in the +1 formulation")
	}
}

func TestScoreRelevantDocWins(t *testing.T) {
	idx := NewIndex(docsFrom(
		"apple banana cherry",
		"apple apple apple",
		"dog cat mouse",
	))
	q := []string{"apple"}
	s0, s1, s2 := idx.Score(0, q), idx.Score(1, q), idx.Score(2, q)
	if s1 <= s0 {
		t.Fatalf("tf saturation: doc1 (%v) must outscore doc0 (%v)", s1, s0)
	}
	if s2 != 0 {
		t.Fatalf("non-matching doc scored %v", s2)
	}
}

func TestTFSaturation(t *testing.T) {
	// BM25's k1 term saturates: tripling tf must NOT triple the score.
	idx := NewIndex(docsFrom("x a b", "x x x", "c d e"))
	q := []string{"x"}
	s1 := idx.Score(0, q)
	s3 := idx.Score(1, q)
	if s3 >= 3*s1 {
		t.Fatalf("no saturation: tf=3 score %v vs tf=1 score %v", s3, s1)
	}
	if s3 <= s1 {
		t.Fatal("higher tf must still score higher")
	}
}

func TestLengthNormalization(t *testing.T) {
	// Same tf, longer doc => lower score.
	idx := NewIndex(docsFrom(
		"term a",
		"term a b c d e f g h i j k l m n o p",
	))
	q := []string{"term"}
	if idx.Score(1, q) >= idx.Score(0, q) {
		t.Fatal("length normalization missing")
	}
}

func TestTopKOrderingAndDeterminism(t *testing.T) {
	docs := GenCorpus(200, 10, 42)
	idx := NewIndex(docs)
	r := sim.NewRNG(7)
	q := GenQuery(3, r)
	res := idx.TopK(q, 10)
	if len(res) > 10 {
		t.Fatalf("TopK returned %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("TopK not sorted by score")
		}
	}
	// TopK must agree with brute-force Score on every returned doc.
	for _, r := range res {
		want := idx.Score(r.DocID, q)
		if math.Abs(r.Score-want) > 1e-9 {
			t.Fatalf("TopK score %v != Score %v for doc %d", r.Score, want, r.DocID)
		}
	}
	res2 := idx.TopK(q, 10)
	for i := range res {
		if res[i] != res2[i] {
			t.Fatal("TopK not deterministic")
		}
	}
}

func TestGenCorpusShape(t *testing.T) {
	docs := GenCorpus(1000, 10, 1)
	if len(docs) != 1000 {
		t.Fatalf("corpus size = %d", len(docs))
	}
	var total int
	for _, d := range docs {
		total += len(d.Terms)
	}
	mean := float64(total) / 1000
	if mean < 8 || mean > 12 {
		t.Fatalf("mean doc length = %v, want ~10 (paper §3.4)", mean)
	}
	// Determinism.
	again := GenCorpus(1000, 10, 1)
	for i := range docs {
		for j := range docs[i].Terms {
			if docs[i].Terms[j] != again[i].Terms[j] {
				t.Fatal("corpus generation not deterministic")
			}
		}
	}
}

func TestScoreOutOfRangePanics(t *testing.T) {
	idx := NewIndex(docsFrom("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range doc did not panic")
		}
	}()
	idx.Score(5, []string{"a"})
}

func TestParseQuery(t *testing.T) {
	q := ParseQuery([]byte("  foo  bar\tbaz\n"))
	if len(q) != 3 || q[0] != "foo" || q[2] != "baz" {
		t.Fatalf("ParseQuery = %v", q)
	}
}

func BenchmarkTopK1000Docs(b *testing.B) {
	idx := NewIndex(GenCorpus(1000, 10, 42))
	q := GenQuery(3, sim.NewRNG(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.TopK(q, 10)
	}
}
