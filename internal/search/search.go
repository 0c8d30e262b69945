// Package search implements the result-set substrate of the evaluation: a
// from-scratch inverted-index search engine with TF-IDF cosine relevance
// normalized to [0, 1].
//
// The paper computes candidate-category result sets "via the platform's
// search engine" (and via Elasticsearch for the public dataset E), then
// drops hits below a relevance threshold (0.8 for Jaccard/F1 runs, 0.9 for
// Perfect-Recall/Exact; Section 5.1). The engine here plays that role: it
// only needs to map a query to a relevance-scored item list, which any
// monotone lexical scorer provides.
package search

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"categorytree/internal/text"
)

// Hit is one scored search result.
type Hit struct {
	// Doc is the document (item) identifier.
	Doc int32
	// Score is the relevance in [0, 1], normalized per query so the best
	// hit scores 1.
	Score float64
}

// Index is an inverted index over documents. After Build it is read-only
// apart from its scratch pool, so Search is safe for concurrent use.
type Index struct {
	postings map[string][]posting
	docLen   []float64 // L2 norm of each document's TF-IDF vector
	numDocs  int
	built    bool
	scratch  sync.Pool // *accumulator, reused across Search calls
}

// accumulator is one Search call's scratch space: a dense score per
// document, the documents touched so far, and the hits that pass the
// threshold. Every score is back to zero whenever it sits in the pool.
type accumulator struct {
	score   []float64
	touched []int32
	kept    []Hit
}

type posting struct {
	doc int32
	tf  float64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{postings: make(map[string][]posting)}
}

// Add indexes the document's text. Documents must be added with consecutive
// IDs starting at 0, before Build.
func (ix *Index) Add(doc int32, content string) {
	if ix.built {
		panic("search: Add after Build")
	}
	counts := make(map[string]int)
	for _, tok := range text.Tokenize(content) {
		counts[tok]++
	}
	for tok, c := range counts {
		ix.postings[tok] = append(ix.postings[tok], posting{doc: doc, tf: 1 + math.Log(float64(c))})
	}
	if int(doc) >= ix.numDocs {
		ix.numDocs = int(doc) + 1
	}
}

// Build finalizes the index: computes IDF weights and document norms. Each
// norm sums its terms in sorted order, so equal catalogs give bit-identical
// indexes.
func (ix *Index) Build() {
	toks := make([]string, 0, len(ix.postings))
	for tok := range ix.postings {
		toks = append(toks, tok)
	}
	slices.Sort(toks)
	ix.docLen = make([]float64, ix.numDocs)
	for _, tok := range toks {
		ps := ix.postings[tok]
		idf := ix.idf(len(ps))
		for _, p := range ps {
			w := p.tf * idf
			ix.docLen[p.doc] += w * w
		}
	}
	for i, v := range ix.docLen {
		ix.docLen[i] = math.Sqrt(v)
	}
	ix.built = true
}

// idf weighs a term by its document frequency df > 0.
func (ix *Index) idf(df int) float64 {
	return math.Log(1 + float64(ix.numDocs)/float64(df))
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.numDocs }

// Search scores documents against the query by TF-IDF cosine similarity,
// normalizes scores so the best hit gets 1, drops hits below minScore, and
// returns at most limit hits (0 = unlimited), best first with ties broken by
// ascending doc. The result is a pure function of the query: each
// document's score is summed over the query terms in sorted order, so equal
// inputs give bit-identical scores on every call.
func (ix *Index) Search(query string, minScore float64, limit int) []Hit {
	if !ix.built {
		panic("search: Search before Build")
	}
	toks := text.Tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	slices.Sort(toks)
	acc, _ := ix.scratch.Get().(*accumulator)
	if acc == nil {
		acc = &accumulator{score: make([]float64, ix.numDocs)}
	}
	defer ix.scratch.Put(acc)

	// Each run of equal tokens is one query term; its length is the term
	// count. Every contribution is positive, so a zero score marks a
	// document not yet touched.
	qNorm := 0.0
	for i := 0; i < len(toks); {
		j := i + 1
		for j < len(toks) && toks[j] == toks[i] {
			j++
		}
		ps := ix.postings[toks[i]]
		c := j - i
		i = j
		if len(ps) == 0 {
			continue
		}
		idf := ix.idf(len(ps))
		qw := (1 + math.Log(float64(c))) * idf
		qNorm += qw * qw
		for _, p := range ps {
			if acc.score[p.doc] == 0 {
				acc.touched = append(acc.touched, p.doc)
			}
			acc.score[p.doc] += qw * p.tf * idf
		}
	}
	if len(acc.touched) == 0 {
		return nil
	}
	qn := math.Sqrt(qNorm)
	best := 0.0
	for _, doc := range acc.touched {
		if cos := acc.score[doc] / (qn * ix.docLen[doc]); cos > best {
			best = cos
		}
	}
	// Normalize to [0, 1] per query (platforms report relative relevance)
	// and filter before sorting; this pass also zeroes the scores for the
	// next call.
	kept := acc.kept[:0]
	for _, doc := range acc.touched {
		s := acc.score[doc] / (qn * ix.docLen[doc]) / best
		acc.score[doc] = 0
		if s >= minScore {
			kept = append(kept, Hit{Doc: doc, Score: s})
		}
	}
	acc.touched = acc.touched[:0]
	slices.SortFunc(kept, func(a, b Hit) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	acc.kept = kept
	if limit > 0 && len(kept) > limit {
		kept = kept[:limit]
	}
	return append([]Hit{}, kept...)
}
