package preprocess_test

import (
	"testing"

	"categorytree/internal/dataset"
	"categorytree/internal/preprocess"
	"categorytree/internal/sim"
)

// BenchmarkPreprocessRun runs the whole pipeline (index, search, filters,
// merge) over the raw D×0.01 dataset at the Threshold-Jaccard defaults.
func BenchmarkPreprocessRun(b *testing.B) {
	raw, err := dataset.GenerateRaw(dataset.D.Scale(0.01))
	if err != nil {
		b.Fatal(err)
	}
	opts := preprocess.DefaultOptions(sim.ThresholdJaccard, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preprocess.Run(raw.Catalog, raw.Existing, raw.Log, opts)
	}
}
