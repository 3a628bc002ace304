// Package bm25 implements the Okapi BM25 ranking function of paper §3.4
// (Robertson & Zaragoza [66]): the search-engine relevance benchmark run
// on a UDP server with 100- and 1000-document corpora of ~10 words each,
// one query scored per arriving packet.
package bm25

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Standard BM25 free parameters.
const (
	K1 = 1.2
	B  = 0.75
)

// Document is one indexed document.
type Document struct {
	ID    int
	Terms []string
}

// Index is an inverted index with BM25 scoring.
type Index struct {
	docs      []Document
	docLen    []int
	avgDocLen float64
	// postings maps term -> docID -> term frequency.
	postings map[string]map[int]int
	df       map[string]int
}

// NewIndex builds an index over the documents.
func NewIndex(docs []Document) *Index {
	idx := &Index{
		docs:     docs,
		docLen:   make([]int, len(docs)),
		postings: make(map[string]map[int]int),
		df:       make(map[string]int),
	}
	var total int
	for i, d := range docs {
		idx.docLen[i] = len(d.Terms)
		total += len(d.Terms)
		seen := map[string]bool{}
		for _, term := range d.Terms {
			m := idx.postings[term]
			if m == nil {
				m = make(map[int]int)
				idx.postings[term] = m
			}
			m[d.ID]++
			if !seen[term] {
				idx.df[term]++
				seen[term] = true
			}
		}
	}
	if len(docs) > 0 {
		idx.avgDocLen = float64(total) / float64(len(docs))
	}
	return idx
}

// NumDocs returns the corpus size.
func (idx *Index) NumDocs() int { return len(idx.docs) }

// IDF returns the BM25 inverse document frequency of a term
// (the [ln((N-df+0.5)/(df+0.5)+1)] form, always non-negative).
func (idx *Index) IDF(term string) float64 {
	n := float64(len(idx.docs))
	df := float64(idx.df[term])
	return math.Log((n-df+0.5)/(df+0.5) + 1)
}

// Score returns the BM25 relevance of a document to the query terms.
func (idx *Index) Score(docID int, query []string) float64 {
	if docID < 0 || docID >= len(idx.docs) {
		panic(fmt.Sprintf("bm25: document %d out of range", docID))
	}
	dl := float64(idx.docLen[docID])
	var s float64
	for _, term := range query {
		post := idx.postings[term]
		tf := float64(post[docID])
		if tf == 0 {
			continue
		}
		idf := idx.IDF(term)
		s += idf * tf * (K1 + 1) / (tf + K1*(1-B+B*dl/idx.avgDocLen))
	}
	return s
}

// Result is one ranked document.
type Result struct {
	DocID int
	Score float64
}

// TopK scores every document against the query and returns the k best,
// ties broken by document ID for determinism. This full scan over the
// corpus is the per-packet work of the benchmark — which is why the
// 1000-document variant is ~10× the 100-document one.
func (idx *Index) TopK(query []string, k int) []Result {
	scores := make(map[int]float64)
	for _, term := range query {
		post, ok := idx.postings[term]
		if !ok {
			continue
		}
		idf := idx.IDF(term)
		for docID, tfInt := range post {
			tf := float64(tfInt)
			dl := float64(idx.docLen[docID])
			scores[docID] += idf * tf * (K1 + 1) / (tf + K1*(1-B+B*dl/idx.avgDocLen))
		}
	}
	res := make([]Result, 0, len(scores))
	for id, s := range scores {
		res = append(res, Result{DocID: id, Score: s})
	}
	sort.Slice(res, func(i, j int) bool {
		//snicvet:ignore floateq sort comparators need an exact strict weak order; a tolerance would make it intransitive
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].DocID < res[j].DocID
	})
	if k < len(res) {
		res = res[:k]
	}
	return res
}

// vocabulary for synthetic corpora: realistic Zipf-ish reuse comes from
// drawing word indices from a skewed distribution.
const vocabSize = 4000

func word(i uint64) string { return fmt.Sprintf("w%04d", i) }

// GenCorpus deterministically generates n documents of ~wordsPerDoc terms
// with Zipf-distributed vocabulary, matching the paper's "randomly
// generated" documents of ~10 words.
func GenCorpus(n, wordsPerDoc int, seed uint64) []Document {
	r := sim.NewRNG(seed)
	z := sim.NewZipf(r.Fork(1), vocabSize, 1.05)
	docs := make([]Document, n)
	for i := range docs {
		nw := wordsPerDoc/2 + r.Intn(wordsPerDoc) // mean ≈ wordsPerDoc
		terms := make([]string, nw)
		for j := range terms {
			terms[j] = word(z.Next())
		}
		docs[i] = Document{ID: i, Terms: terms}
	}
	return docs
}

// GenQuery draws a query of nTerms words from the same distribution.
func GenQuery(nTerms int, r *sim.RNG) []string {
	z := sim.NewZipf(r.Fork(2), vocabSize, 1.05)
	q := make([]string, nTerms)
	for i := range q {
		q[i] = word(z.Next())
	}
	return q
}

// ParseQuery splits a whitespace query payload, the wire format of the
// UDP benchmark server.
func ParseQuery(payload []byte) []string {
	return strings.Fields(string(payload))
}
