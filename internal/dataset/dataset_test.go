package dataset

import (
	"testing"

	"categorytree/internal/oct"
	"categorytree/internal/sim"
)

func TestSpecs(t *testing.T) {
	if len(All()) != 5 {
		t.Fatal("expected five datasets A-E")
	}
	// Paper sizes.
	if A.Items != 28_000 || C.Items != 340_000 || D.Items != 1_200_000 {
		t.Fatal("paper item counts wrong")
	}
	if !E.Uniform {
		t.Fatal("dataset E uses uniform weights (public data)")
	}
	if _, err := ByName("C"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("Z"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestScaleFloors(t *testing.T) {
	s := A.Scale(0.001)
	if s.Items < 400 || s.RawQueries < 60 {
		t.Fatalf("scale floors violated: %+v", s)
	}
	if A.Scale(1) != A {
		t.Fatal("Scale(1) must be identity")
	}
}

func TestGenerateSmallScaleAllDatasets(t *testing.T) {
	for _, spec := range All() {
		small := spec.Scale(0.02)
		b, err := Generate(small, sim.ThresholdJaccard, 0.8)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if b.Instance.N() == 0 {
			t.Fatalf("%s: empty instance", spec.Name)
		}
		if b.Catalog.Len() != small.Items {
			t.Fatalf("%s: catalog size %d, want %d", spec.Name, b.Catalog.Len(), small.Items)
		}
		if b.Existing.Root().Items.Len() != small.Items {
			t.Fatalf("%s: existing tree incomplete", spec.Name)
		}
		if spec.Uniform {
			// Pre-merge weights are uniform 1; merged sets carry the sum,
			// so every weight is a positive integer.
			for _, s := range b.Instance.Sets {
				if s.Weight < 1 || s.Weight != float64(int(s.Weight)) {
					t.Fatalf("%s: weight %v not an integral merge of uniform 1s", spec.Name, s.Weight)
				}
			}
		}
		// The pipeline must have cleaned something.
		if b.Stats.DroppedRare == 0 && b.Stats.Merged == 0 {
			t.Fatalf("%s: pipeline had no effect: %+v", spec.Name, b.Stats)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := B.Scale(0.02)
	a, err := Generate(s, sim.PerfectRecall, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(s, sim.PerfectRecall, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	requireSameInstance(t, a.Instance, b.Instance)
}

// TestRawInstanceDeterministic preprocesses one raw D×0.01 dataset twice:
// the search index, its scores and the merge must give the same instance.
func TestRawInstanceDeterministic(t *testing.T) {
	raw, err := GenerateRaw(D.Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	a, sa := raw.Instance(sim.ThresholdJaccard, 0.8)
	b, sb := raw.Instance(sim.ThresholdJaccard, 0.8)
	if sa != sb {
		t.Fatalf("stats differ between runs: %+v vs %+v", sa, sb)
	}
	requireSameInstance(t, a, b)
}

func requireSameInstance(t *testing.T, a, b *oct.Instance) {
	t.Helper()
	if a.N() != b.N() || a.Universe != b.Universe {
		t.Fatalf("instances differ in shape: %d sets over %d items vs %d over %d", a.N(), a.Universe, b.N(), b.Universe)
	}
	for i := range a.Sets {
		x, y := a.Sets[i], b.Sets[i]
		if !x.Items.Equal(y.Items) {
			t.Fatalf("set %d: items differ between runs", i)
		}
		if x.Weight != y.Weight || x.Label != y.Label || x.Delta != y.Delta || x.Source != y.Source {
			t.Fatalf("set %d differs between runs: weight %v/%v, label %q/%q, delta %v/%v, source %q/%q",
				i, x.Weight, y.Weight, x.Label, y.Label, x.Delta, y.Delta, x.Source, y.Source)
		}
	}
}

func TestPostMergeCountsRoughlyMatchTargets(t *testing.T) {
	// At scale 0.1, dataset A targets ≈45 post-preprocessing queries; the
	// pipeline's yield should be within a loose factor of the raw count.
	b, err := Generate(A.Scale(0.1), sim.ThresholdJaccard, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	n := b.Instance.N()
	raw := b.Spec.RawQueries
	if n < raw/5 || n > raw {
		t.Fatalf("final %d queries from %d raw; expected between %d and %d", n, raw, raw/5, raw)
	}
}
