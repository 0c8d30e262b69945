package search_test

import (
	"reflect"
	"sync"
	"testing"

	"categorytree/internal/dataset"
	"categorytree/internal/preprocess"
	"categorytree/internal/search"
	"categorytree/internal/sim"
)

// replay is a dataset D×0.01 catalog indexed the way preprocess indexes
// it, with its raw query log: the paper's main pipeline at test scale.
type replay struct {
	ix      *search.Index
	queries []string
}

var (
	replayOnce sync.Once
	replayFix  replay
)

func replayFixture(tb testing.TB) replay {
	tb.Helper()
	replayOnce.Do(func() {
		raw, err := dataset.GenerateRaw(dataset.D.Scale(0.01))
		if err != nil {
			panic(err)
		}
		ix := search.NewIndex()
		for _, p := range raw.Catalog.Products {
			ix.Add(int32(p.ID), p.Title)
		}
		ix.Build()
		replayFix.ix = ix
		for _, q := range raw.Log {
			replayFix.queries = append(replayFix.queries, q.Text)
		}
	})
	return replayFix
}

// TestSearchRepeatable runs every query of the log many times at the
// pipeline's relevance threshold and result cap and requires the very same
// hits every time, scores compared exactly: preprocess turns these hits
// into the OCT instance, so any drift changes the instance.
func TestSearchRepeatable(t *testing.T) {
	fx := replayFixture(t)
	opts := preprocess.DefaultOptions(sim.ThresholdJaccard, 0.8)
	repeats := 16
	if testing.Short() {
		repeats = 4
	}
	for _, q := range fx.queries {
		first := fx.ix.Search(q, opts.Relevance, opts.MaxResults)
		for r := 1; r < repeats; r++ {
			if got := fx.ix.Search(q, opts.Relevance, opts.MaxResults); !reflect.DeepEqual(got, first) {
				t.Fatalf("query %q: repeat %d gave other hits than the first call", q, r)
			}
		}
	}
}

// BenchmarkSearch replays the D×0.01 query log at preprocess's default
// relevance threshold and result cap; one op is the whole log.
func BenchmarkSearch(b *testing.B) {
	fx := replayFixture(b)
	opts := preprocess.DefaultOptions(sim.ThresholdJaccard, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range fx.queries {
			fx.ix.Search(q, opts.Relevance, opts.MaxResults)
		}
	}
}
