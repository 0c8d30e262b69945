package search

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"categorytree/internal/text"
	"categorytree/internal/xrand"
)

func buildIndex(docs []string) *Index {
	ix := NewIndex()
	for i, d := range docs {
		ix.Add(int32(i), d)
	}
	ix.Build()
	return ix
}

func TestSearchRanksExactMatchesFirst(t *testing.T) {
	ix := buildIndex([]string{
		"black nike shirt",        // 0: all three terms
		"black nike shoes",        // 1: two terms
		"red adidas pants",        // 2: none
		"nike shirt long sleeve",  // 3: two terms
		"black shirt cotton slim", // 4: two terms
	})
	hits := ix.Search("black nike shirt", 0, 0)
	if len(hits) == 0 || hits[0].Doc != 0 {
		t.Fatalf("hits = %v, want doc 0 first", hits)
	}
	if hits[0].Score != 1 {
		t.Fatalf("top score = %v, want 1 (normalized)", hits[0].Score)
	}
	for _, h := range hits {
		if h.Doc == 2 {
			t.Fatal("doc with no query terms retrieved")
		}
		if h.Score < 0 || h.Score > 1 {
			t.Fatalf("score %v out of [0,1]", h.Score)
		}
	}
}

func TestRelevanceThresholdFilters(t *testing.T) {
	ix := buildIndex([]string{
		"black nike shirt",
		"nike running shoes waterproof model",
	})
	all := ix.Search("black nike shirt", 0, 0)
	strict := ix.Search("black nike shirt", 0.9, 0)
	if len(strict) >= len(all) {
		t.Fatalf("threshold did not filter: %d vs %d", len(strict), len(all))
	}
	if len(strict) == 0 || strict[0].Doc != 0 {
		t.Fatalf("strict hits = %v", strict)
	}
}

func TestSearchLimit(t *testing.T) {
	docs := make([]string, 20)
	for i := range docs {
		docs[i] = "nike shirt"
	}
	ix := buildIndex(docs)
	if got := len(ix.Search("nike", 0, 5)); got != 5 {
		t.Fatalf("limit ignored: %d hits", got)
	}
}

func TestSearchUnknownTerms(t *testing.T) {
	ix := buildIndex([]string{"black shirt"})
	if hits := ix.Search("quantum flux", 0, 0); hits != nil {
		t.Fatalf("unknown terms should return nothing, got %v", hits)
	}
	if hits := ix.Search("", 0, 0); hits != nil {
		t.Fatalf("empty query should return nothing, got %v", hits)
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	ix := buildIndex([]string{"nike shirt", "nike shirt", "nike shirt"})
	a := ix.Search("nike shirt", 0, 0)
	b := ix.Search("nike shirt", 0, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("search order not deterministic")
		}
	}
	// Equal scores tie-break by doc ID.
	if a[0].Doc != 0 || a[1].Doc != 1 || a[2].Doc != 2 {
		t.Fatalf("tie-break order wrong: %v", a)
	}
}

func TestAddAfterBuildPanics(t *testing.T) {
	ix := buildIndex([]string{"x"})
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Build should panic")
		}
	}()
	ix.Add(5, "y")
}

func TestIDFDiscriminates(t *testing.T) {
	// "shirt" appears everywhere (low idf); "gucci" once. A "gucci shirt"
	// query must rank the gucci doc over plain shirt docs.
	docs := []string{"red shirt", "blue shirt", "green shirt", "gucci shirt"}
	ix := buildIndex(docs)
	hits := ix.Search("gucci shirt", 0, 0)
	if hits[0].Doc != 3 {
		t.Fatalf("idf weighting failed: %v", hits)
	}
}

// oracleScores is the brute-force reference scorer: it tokenizes every
// document afresh and scores each one by TF-IDF cosine, with the query terms
// summed in sorted order, normalized so the best document scores 1. It
// returns nil when no document matches.
func oracleScores(docs []string, query string) []Hit {
	counts := make([]map[string]int, len(docs))
	df := make(map[string]int)
	for i, d := range docs {
		counts[i] = make(map[string]int)
		for _, tok := range text.Tokenize(d) {
			counts[i][tok]++
		}
		for tok := range counts[i] {
			df[tok]++
		}
	}
	n := float64(len(docs))
	idf := func(tok string) float64 { return math.Log(1 + n/float64(df[tok])) }
	tf := func(c int) float64 { return 1 + math.Log(float64(c)) }

	qCounts := make(map[string]int)
	for _, tok := range text.Tokenize(query) {
		if df[tok] > 0 {
			qCounts[tok]++
		}
	}
	terms := make([]string, 0, len(qCounts))
	for tok := range qCounts {
		terms = append(terms, tok)
	}
	sort.Strings(terms)
	qNorm := 0.0
	for _, tok := range terms {
		qw := tf(qCounts[tok]) * idf(tok)
		qNorm += qw * qw
	}
	qn := math.Sqrt(qNorm)

	var hits []Hit
	best := 0.0
	for i, c := range counts {
		s, matched := 0.0, false
		for _, tok := range terms {
			if k := c[tok]; k > 0 {
				s += tf(qCounts[tok]) * idf(tok) * tf(k) * idf(tok)
				matched = true
			}
		}
		if !matched {
			continue
		}
		docTerms := make([]string, 0, len(c))
		for tok := range c {
			docTerms = append(docTerms, tok)
		}
		sort.Strings(docTerms)
		norm := 0.0
		for _, tok := range docTerms {
			w := tf(c[tok]) * idf(tok)
			norm += w * w
		}
		cos := s / (qn * math.Sqrt(norm))
		best = math.Max(best, cos)
		hits = append(hits, Hit{Doc: int32(i), Score: cos})
	}
	for i := range hits {
		hits[i].Score /= best
	}
	return hits
}

// oracleSearch is the brute-force reference for Search: the oracle's scores,
// filtered by minScore, sorted best first (ties by doc) and truncated.
func oracleSearch(scores []Hit, minScore float64, limit int) []Hit {
	if scores == nil {
		return nil
	}
	out := []Hit{}
	for _, h := range scores {
		if h.Score >= minScore {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score > out[j].Score || out[i].Score < out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// randomCatalog draws documents over a small vocabulary, so duplicate
// documents (exact score ties) and repeated tokens are common, together
// with queries that mix known words, repeats and unknown words.
func randomCatalog(rng *xrand.RNG) (docs, queries []string) {
	vocab := []string{"black", "red", "nike", "adidas", "shirt", "shoe", "slim", "cotton", "wool", "kids", "tv", "oled", "55in", "cable"}
	words := func(n int, extra ...string) string {
		ws := make([]string, n)
		for i := range ws {
			if len(extra) > 0 && rng.Bool(0.2) {
				ws[i] = extra[rng.Intn(len(extra))]
			} else {
				ws[i] = vocab[rng.Intn(len(vocab))]
			}
		}
		return strings.Join(ws, " ")
	}
	docs = make([]string, 1+rng.Intn(120))
	for i := range docs {
		docs[i] = words(1 + rng.Intn(6))
	}
	queries = make([]string, 12)
	for i := range queries {
		queries[i] = words(rng.Intn(5), "quantum", "flux", "Nike", "SHIRT")
	}
	return docs, queries
}

var oracleCases = []struct {
	minScore float64
	limit    int
}{{0, 0}, {0, 1}, {0, 3}, {0.3, 0}, {0.5, 2}, {0.8, 5}, {0.95, 0}, {1, 0}, {1, 1}, {1.01, 0}}

func TestSearchMatchesOracle(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 300; trial++ {
		docs, queries := randomCatalog(rng)
		ix := buildIndex(docs)
		for _, q := range queries {
			scores := oracleScores(docs, q)
			for _, c := range oracleCases {
				got := ix.Search(q, c.minScore, c.limit)
				want := oracleSearch(scores, c.minScore, c.limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: Search(%q, %v, %d) over %q\n got %v\nwant %v", trial, q, c.minScore, c.limit, docs, got, want)
				}
			}
		}
	}
}

func TestSearchOracleEdgeCases(t *testing.T) {
	docs := []string{
		"nike shirt", "nike shirt", // docs 0 and 1 tie exactly
		"nike shirt nike", "black nike shirt", "nike", "red dress", "shirt shirt shirt",
	}
	ix := buildIndex(docs)
	for _, q := range []string{
		"", "  ,. ", "quantum flux", // empty and unknown-only queries
		"nike shirt",       // ties at every limit cutoff
		"nike nike shirt",  // duplicate query tokens
		"shirt NIKE nike",  // case folding plus duplicates
		"nike quantum",     // unknown token beside a known one
		"red dress shirts", // partial overlap
	} {
		scores := oracleScores(docs, q)
		for _, c := range oracleCases {
			got := ix.Search(q, c.minScore, c.limit)
			want := oracleSearch(scores, c.minScore, c.limit)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Search(%q, %v, %d)\n got %v\nwant %v", q, c.minScore, c.limit, got, want)
			}
		}
	}
	// Docs 0 and 1 tie; a limit that splits the tie keeps the lower doc.
	if hits := ix.Search("nike shirt", 0, 1); len(hits) != 1 || hits[0].Doc != 0 {
		t.Fatalf("tie at the limit cutoff: %v, want doc 0", hits)
	}
	if hits := ix.Search("nike shirt", 1.01, 0); hits == nil || len(hits) != 0 {
		t.Fatalf("everything filtered: %#v, want an empty non-nil slice", hits)
	}
}

// TestSearchConcurrent runs one Index from 8 goroutines at once, each in its
// own query order, against the serial results: scratch space that leaks
// between calls (a score not zeroed, a slice shared with the caller) makes
// the results differ. Run it under -race.
func TestSearchConcurrent(t *testing.T) {
	rng := xrand.New(11)
	var docs, queries []string
	for len(queries) < 60 {
		d, q := randomCatalog(rng)
		docs = append(docs, d...)
		queries = append(queries, q...)
	}
	ix := buildIndex(docs)
	type call struct {
		q        string
		minScore float64
		limit    int
	}
	var (
		calls []call
		want  [][]Hit
	)
	for _, q := range queries {
		scores := oracleScores(docs, q)
		for _, c := range oracleCases {
			calls = append(calls, call{q, c.minScore, c.limit})
			want = append(want, oracleSearch(scores, c.minScore, c.limit))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		order := rng.Perm(len(calls))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, i := range order {
					c := calls[i]
					got := ix.Search(c.q, c.minScore, c.limit)
					if !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Sprintf("Search(%q, %v, %d) = %v, want %v", c.q, c.minScore, c.limit, got, want[i])
						return
					}
					// Callers own the result: scribbling on it must not
					// reach any later call.
					for k := range got {
						got[k] = Hit{Doc: -1, Score: -1}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
