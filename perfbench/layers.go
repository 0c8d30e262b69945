package main

import (
	"strings"
	"time"
)

// finish closes the run: peak memory, runtime counters, and the end of the
// main lane's accounted time.
func (b *bench) finish() {
	b.main.from, b.main.to = b.t0, time.Now()
	b.set("max_rss_mb", maxRSSMB())
	rt := readRuntime()
	if cpu := rt.processCPU - b.rt0.processCPU; cpu > 0 {
		b.set("runtime.gc_cpu_share", (rt.gcCPU-b.rt0.gcCPU)/cpu)
	}
	b.set("runtime.alloc_mb", (rt.allocBytes-b.rt0.allocBytes)/1e6)
}

// spanRef locates one span.
type spanRef struct {
	lane *lane
	idx  int
	self time.Duration
}

func (r spanRef) dur() time.Duration { return r.lane.spans[r.idx].end.Sub(r.lane.spans[r.idx].start) }
func (r spanRef) attr() float64      { return r.lane.spans[r.idx].attr }

// idleMetrics lists, per workload, the layers it gives no work to, and single
// metrics it has no work for: the delta engine repairs its conflict graph in
// place and never builds a hypergraph. A traced run reports 0 for these;
// any other per-layer metric the run did not measure fails it.
var idleMetrics = map[string][]string{
	"build-jaccard": {"delta"},
	"build-pr":      {"delta"},
	"serve-churn":   {"search", "preprocess", "conflict.hypergraph_s"},
}

// metricLayer is the layer a per-layer metric belongs to: the prefix before
// the first dot, or <layer> for self.<layer>_s.
func metricLayer(name string) string {
	if rest, ok := strings.CutPrefix(name, "self."); ok {
		return strings.TrimSuffix(rest, "_s")
	}
	return layerOf(name)
}

// idle reports whether the run's workload has no work for the metric.
func (b *bench) idle(metric string) bool {
	for _, x := range idleMetrics[b.opt.workload] {
		if x == metric || x == metricLayer(metric) {
			return true
		}
	}
	return false
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans. A metric is set only when the run observed what it summarizes;
// the workload's idle metrics are then set to 0.
func (b *bench) layerMetrics() {
	lanes := append([]*lane{b.main}, b.workerLanes...)
	byName := make(map[string][]spanRef)
	selfByLayer := make(map[string]time.Duration)
	var laneTime, selfTotal time.Duration
	for _, l := range lanes {
		laneTime += l.to.Sub(l.from)
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			if s.name == "driver.window" {
				// The window's time is accounted on the worker lanes.
				laneTime -= s.end.Sub(s.start)
				continue
			}
			byName[s.name] = append(byName[s.name], spanRef{lane: l, idx: i, self: self[i]})
			selfByLayer[layerOf(s.name)] += self[i]
			selfTotal += self[i]
		}
	}

	// put sets the metric to f(xs) when there are observations.
	put := func(name string, xs []float64, f func([]float64) float64) {
		if len(xs) > 0 {
			b.set(name, f(xs))
		}
	}
	p99 := func(xs []float64) float64 { return quantile(xs, 0.99) }
	count := func(xs []float64) float64 { return float64(len(xs)) }
	// perRoot is, for each lane root (one build, one batch, one set-up),
	// the time spent in spans of the given name under that root.
	perRoot := func(name string) []float64 {
		type key struct {
			l    *lane
			root int
		}
		sums := make(map[key]time.Duration)
		var order []key
		for _, r := range byName[name] {
			k := key{r.lane, r.lane.spans[r.idx].root}
			if _, ok := sums[k]; !ok {
				order = append(order, k)
			}
			sums[k] += r.dur()
		}
		xs := make([]float64, 0, len(order))
		for _, k := range order {
			xs = append(xs, seconds(sums[k]))
		}
		return xs
	}
	durs := func(name string, unit func(time.Duration) float64) []float64 {
		var xs []float64
		for _, r := range byName[name] {
			xs = append(xs, unit(r.dur()))
		}
		return xs
	}
	attrs := func(name string) []float64 {
		var xs []float64
		for _, r := range byName[name] {
			xs = append(xs, r.attr())
		}
		return xs
	}
	attrSum := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			for _, x := range attrs(n) {
				sum += x
			}
		}
		return sum
	}

	put("search.index_s", perRoot("search.index"), median)
	queries := durs("search.query", micros)
	put("search.query_p50_us", queries, median)
	put("search.query_p99_us", queries, p99)
	put("search.queries", queries, count)
	if scored := attrSum("trace.scored_docs", "trace.search_replay"); scored > 0 {
		b.set("search.scored_docs", scored)
		b.set("search.kept_ratio", attrSum("search.query")/scored)
	}
	put("dataset.generate_s", perRoot("dataset.generate"), median)
	put("preprocess.s", perRoot("preprocess.run"), median)
	put("conflict.analyze_s", perRoot("conflict.analyze"), median)
	put("conflict.hypergraph_s", perRoot("conflict.hypergraph"), median)
	put("mis.solve_s", perRoot("mis.solve"), median)
	put("mis.optimal", b.samples["mis.optimal"], mean)
	put("ctcr.assemble_s", perRoot("ctcr.assemble"), median)
	put("tree.score_s", perRoot("tree.score"), median)
	put("tree.read_index_s", durs("tree.read_index", seconds), median)
	put("tree.best_cover_p50_us", durs("tree.best_cover", micros), median)
	put("tree.candidates_p50", attrs("tree.best_cover"), median)
	var catSelf []float64
	for _, r := range byName["serve.categorize"] {
		catSelf = append(catSelf, micros(r.self))
	}
	put("serve.categorize_self_p50_us", catSelf, median)
	put("serve.publish_ms", durs("serve.publish", millis), median)
	put("delta.apply_p50_ms", durs("delta.apply", millis), median)
	put("delta.rebuild_p50_ms", durs("delta.rebuild", millis), median)

	// Build workloads take the overhead from builds: the layered build
	// (replay excluded) against the untraced reference build.
	if ref := median(b.samples["trace.reference_build_s"]); ref > 0 {
		b.set("trace.overhead_share", median(b.samples["trace.layered_build_s"])/ref-1)
	}
	for l, d := range selfByLayer {
		b.set("self."+l+"_s", seconds(d))
	}
	b.set("trace.lane_s", seconds(laneTime))
	if laneTime > 0 {
		b.set("trace.unattributed_share", seconds(laneTime-selfTotal)/seconds(laneTime))
	}
	for _, m := range perLayer {
		if _, ok := b.vals[m.name]; !ok && b.idle(m.name) {
			b.vals[m.name] = 0
		}
	}
}
