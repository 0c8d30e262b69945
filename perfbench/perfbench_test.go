package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json, which names the
// metrics the driver expects; the benchmark's own lists must match it.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return f
}

func TestBenchmarkFileMatchesMetricLists(t *testing.T) {
	f := readBenchmarkFile(t)
	same := func(kind string, got []metricSpec, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit || got[i].better != want[i].Better {
				t.Errorf("%s[%d]: benchmark %+v, BENCHMARK.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, f.EndToEnd)
	same("per_layer", perLayer, f.PerLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: benchmark %v, BENCHMARK.json %v", workloadNames, names)
	}
}

// mayBeZero lists the per-layer metrics whose zero is a measurement rather
// than an unmeasured layer.
var mayBeZero = map[string]bool{
	"conflict.pairs2":      true, // a smoke-size instance may have no conflicts,
	"mis.nodes":            true, // and then the solver has no vertex
	"mis.components":       true, // and no component
	"conflict.triples":     true, // no 3-conflicts (Threshold-Jaccard, Exact)
	"conflict.must_pairs":  true, // no pair must share a category
	"preprocess.merged":    true, // no near-duplicate sets to merge
	"mis.fixed":            true, // reductions fixed no vertex
	"mis.optimal":          true, // every solve hit its budget
	"delta.reseeds":        true, // no batch needed a full reseed
	"trace.overhead_share": true, // a difference of two timings
}

// TestSmoke runs every workload at reduced size, untraced and traced, and
// checks that each run emits every metric with its unit, that an untraced
// run's metrics are above 0, that a traced run measured every metric of the
// layers it gives work to, that the output checks ran and passed, and that
// no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds per workload")
	}
	wantChecks := map[string][]string{
		"build-jaccard": {"validate", "deterministic", "categorize_sample"},
		"build-pr":      {"validate", "deterministic", "categorize_sample"},
		"serve-churn":   {"validate", "categorize_sample", "validate_batches", "compact_equal"},
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				res, b, err := runWorkload(options{workload: name, seed: 3, seconds: 1, traced: traced, smoke: true}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %q", m.name, got, m.unit)
					}
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				ran := make(map[string]bool)
				for _, c := range b.checks {
					ran[c.name] = true
				}
				want := wantChecks[name]
				if traced && strings.HasPrefix(name, "build-") {
					want = append(want, "layered_equal")
				}
				for _, c := range want {
					if !ran[c] {
						t.Errorf("check %s did not run (ran %v)", c, ran)
					}
				}
				if traced {
					for _, m := range perLayer {
						v := res.Metrics[m.name].Value
						switch {
						case b.idle(m.name):
							if v != 0 {
								t.Errorf("%s = %v, idle on this workload, want 0", m.name, v)
							}
						case !mayBeZero[m.name] && v <= 0:
							t.Errorf("%s = %v, want > 0", m.name, v)
						}
					}
					u := res.Metrics["trace.unattributed_share"].Value
					if u < 0 || u >= 1 {
						t.Errorf("trace.unattributed_share = %v, want a share in [0, 1)", u)
					}
					// Self times and the unattributed share account for the
					// lane time.
					sum := 0.0
					for _, l := range layers {
						sum += res.Metrics["self."+l+"_s"].Value
					}
					lane := res.Metrics["trace.lane_s"].Value
					if d := sum + u*lane - lane; d > 1e-6*lane || d < -1e-6*lane {
						t.Errorf("self times %.6f s + unattributed %.6f s != lane time %.6f s", sum, u*lane, lane)
					}
				} else {
					// End-to-end metrics are never 0: a zero is an
					// unmeasured metric or a broken clock.
					for _, m := range endToEnd {
						if v := res.Metrics[m.name].Value; v <= 0 {
							t.Errorf("%s = %v, want > 0", m.name, v)
						}
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := realMain([]string{"--workload", "nosuch"}, io.Discard, io.Discard); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if code := realMain([]string{"--workload", "build-jaccard", "--trace", "2"}, io.Discard, io.Discard); code == 0 {
		t.Fatal("--trace 2 exited 0")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	l := &lane{on: true}
	l.begin("driver.build")
	l.begin("conflict.analyze")
	l.end()
	l.begin("mis.solve")
	l.end()
	l.end()
	parent := l.spans[0]
	self := selfTimes(l.spans)
	kids := l.spans[1].end.Sub(l.spans[1].start) + l.spans[2].end.Sub(l.spans[2].start)
	if got, want := self[0], parent.end.Sub(parent.start)-kids; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
}
