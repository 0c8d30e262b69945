package main

import (
	"reflect"
	"runtime"
	"strings"
	"time"

	"categorytree/internal/conflict"
	"categorytree/internal/ctcr"
	"categorytree/internal/dataset"
	"categorytree/internal/mis"
	"categorytree/internal/oct"
	"categorytree/internal/preprocess"
	"categorytree/internal/search"
	"categorytree/internal/serve"
	"categorytree/internal/sim"
	"categorytree/internal/text"
	"categorytree/internal/tree"
	"categorytree/internal/treediff"
)

// sizes fixes the input sizes of every workload. fullSizes is the
// benchmark; smokeSizes keeps the benchmark's own tests fast.
type sizes struct {
	// jaccard and pr scale paper datasets D and E (build-pr's catalog has
	// prItems items); a build run builds jaccardSets or prSets sub-datasets
	// of that size.
	jaccard, pr         float64
	prItems             int
	jaccardSets, prSets int
	// churnSets is the experiments.SyntheticScale instance size.
	churnSets int
	// setups is how many times each workload repeats its set-up; setup_s
	// and serve-churn's set-up build time are medians over them.
	setups int
	// publishes is how many times each built tree is published, for the
	// publish_* metrics of the workloads that publish only after builds.
	publishes int
	// sample is how many /categorize requests of each catalog are checked
	// against the exhaustive scorer.
	sample int
	// readRate is the fixed request rate (1/s) of the build workloads' read
	// stage, churnRate that of serve-churn.
	readRate, churnRate float64
	// batchEvery is the churn schedule; batchFrac the share of live sets
	// one batch mutates.
	batchEvery time.Duration
	batchFrac  float64
}

var fullSizes = sizes{
	jaccard:     0.01,
	pr:          0.05,
	prItems:     12000,
	jaccardSets: 12,
	prSets:      12,
	churnSets:   20000,
	setups:      3,
	publishes:   32,
	sample:      64,
	readRate:    2000,
	churnRate:   2000,
	batchEvery:  200 * time.Millisecond,
	batchFrac:   0.001,
}

var smokeSizes = sizes{
	jaccard:     0.001,
	pr:          0.005,
	prItems:     1200,
	jaccardSets: 2,
	prSets:      2,
	churnSets:   2000,
	setups:      2,
	publishes:   2,
	sample:      16,
	readRate:    500,
	churnRate:   500,
	batchEvery:  250 * time.Millisecond,
	batchFrac:   0.005,
}

// pipeline is one build workload: a dataset shape and the OCT variant the
// tree is built for. Its runs build datasets independent sub-datasets.
type pipeline struct {
	spec     dataset.Spec
	cfg      oct.Config
	datasets int
}

// sub is the pipeline over sub-dataset k, whose generator seed derives from
// the workload seed.
func (p pipeline) sub(k int) pipeline {
	p.spec.Seed = p.spec.Seed*1000 + int64(k)
	return p
}

// jaccardPipeline is dataset D's shape (electronics, Zipf weights) under
// Threshold-Jaccard at δ=0.8: search and tree construction carry the time.
func jaccardPipeline(sz sizes, seed int64) pipeline {
	spec := dataset.D.Scale(sz.jaccard)
	spec.Seed = seed
	return pipeline{spec: spec, cfg: oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8}, datasets: sz.jaccardSets}
}

// prPipeline is dataset E's shape (public electronics, uniform weights)
// under Perfect-Recall at δ=0.6: 3-conflicts and the hypergraph MIS carry
// the time. The catalog has prItems items, more than E's scaling gives, so
// that its text searches cost what build-jaccard's do: with E ×0.05's 3000
// items a search takes ~0.4 ms, and the read stage's tail was no larger
// than the machine's own scheduling noise.
func prPipeline(sz sizes, seed int64) pipeline {
	spec := dataset.E.Scale(sz.pr)
	spec.Items = sz.prItems
	spec.Seed = seed
	return pipeline{spec: spec, cfg: oct.Config{Variant: sim.PerfectRecall, Delta: 0.6}, datasets: sz.prSets}
}

func (p pipeline) prepOptions() preprocess.Options {
	o := preprocess.DefaultOptions(p.cfg.Variant, p.cfg.Delta)
	o.UniformWeights = p.spec.Uniform
	return o
}

// built is one finished build.
type built struct {
	inst  *oct.Instance
	stats preprocess.Stats
	res   *ctcr.Result
	// took is raw catalog and log to finished tree; cpu is the process CPU
	// time it took (untraced builds only).
	took, cpu time.Duration
}

// generate makes the raw catalog, existing tree and query log.
func (b *bench) generate(p pipeline) (*dataset.Raw, error) {
	var raw *dataset.Raw
	var err error
	b.main.timed("dataset.generate", func() { raw, err = dataset.GenerateRaw(p.spec) })
	return raw, err
}

// buildPlain is the untraced build: preprocess.Run then ctcr.BuildContext,
// as a user of the program runs them.
func (b *bench) buildPlain(raw *dataset.Raw, p pipeline) (built, error) {
	start, cpu0 := time.Now(), processCPU()
	inst, st := preprocess.Run(raw.Catalog, raw.Existing, raw.Log, p.prepOptions())
	res, err := ctcr.BuildContext(b.ctx, inst, p.cfg, ctcr.DefaultOptions())
	return built{inst: inst, stats: st, res: res, took: time.Since(start), cpu: processCPU() - cpu0}, err
}

// buildLayered is the traced build. It first replays the query log through
// a search index with preprocess's relevance threshold and limit (the
// search inside preprocess.Run cannot be timed from outside the program),
// then runs the stages ctcr.BuildContext runs, one call per layer, each in
// its own span. took excludes the replay.
func (b *bench) buildLayered(raw *dataset.Raw, p pipeline) (built, error) {
	l := b.main
	l.begin("driver.build")
	defer l.end()
	b.replaySearch(raw, p.prepOptions())

	start := time.Now()
	var out built
	l.timed("preprocess.run", func() { out.inst, out.stats = preprocess.Run(raw.Catalog, raw.Existing, raw.Log, p.prepOptions()) })
	if err := out.inst.Validate(); err != nil {
		return out, err
	}
	opts := ctcr.DefaultOptions()
	var analysis *conflict.Result
	var err error
	l.timed("conflict.analyze", func() { analysis, err = conflict.AnalyzeContext(b.ctx, out.inst, p.cfg, conflict.Options{}) })
	if err != nil {
		return out, err
	}
	var g *mis.Hypergraph
	l.timed("conflict.hypergraph", func() { g = conflict.BuildHypergraph(out.inst, analysis) })
	var sol mis.Result
	l.timed("mis.solve", func() { sol, err = mis.SolveContext(b.ctx, g, opts.MIS) })
	if err != nil {
		return out, err
	}
	l.timed("ctcr.assemble", func() { out.res, err = ctcr.Assemble(b.ctx, out.inst, p.cfg, analysis, sol.Set, opts) })
	if err != nil {
		return out, err
	}
	out.res.MIS = sol
	out.took = time.Since(start)
	b.samples["trace.layered_build_s"] = append(b.samples["trace.layered_build_s"], seconds(out.took))

	b.set("preprocess.sets_out", float64(out.stats.Final))
	b.set("preprocess.merged", float64(out.stats.Merged))
	b.set("conflict.pairs2", float64(len(analysis.Conflicts2)))
	b.set("conflict.triples", float64(len(analysis.Conflicts3)))
	must := 0
	for _, m := range analysis.MustT {
		must += len(m)
	}
	b.set("conflict.must_pairs", float64(must/2))
	b.misResult(sol)
	b.set("ctcr.selected", float64(len(out.res.Selected)))
	b.set("ctcr.categories", float64(out.res.Tree.Len()))
	return out, nil
}

// misResult records the solver's work counters.
func (b *bench) misResult(sol mis.Result) {
	b.set("mis.nodes", float64(sol.Nodes))
	b.set("mis.components", float64(sol.Components))
	b.set("mis.fixed", float64(sol.Fixed))
	opt := 0.0
	if sol.Optimal {
		opt = 1
	}
	b.samples["mis.optimal"] = append(b.samples["mis.optimal"], opt)
}

// searchIndex indexes the catalog's titles, in span search.index, as the
// read handler's q= search needs.
func (b *bench) searchIndex(raw *dataset.Raw) *search.Index {
	var ix *search.Index
	b.main.timed("search.index", func() {
		ix = search.NewIndex()
		for _, p := range raw.Catalog.Products {
			ix.Add(int32(p.ID), p.Title)
		}
		ix.Build()
	})
	return ix
}

// replaySearch indexes the catalog and runs every query of the log, in
// spans search.index and search.query (whose attribute is the hits kept).
// Counting the documents a query scores takes a second, unthresholded
// search; it runs in a trace.scored_docs span, so that it is not charged to
// the search layer.
func (b *bench) replaySearch(raw *dataset.Raw, opt preprocess.Options) {
	l := b.main
	ix := b.searchIndex(raw)
	for _, q := range raw.Log {
		start := time.Now()
		kept := len(ix.Search(q.Text, opt.Relevance, opt.MaxResults))
		mid := time.Now()
		scored := len(ix.Search(q.Text, 0, 0))
		l.add("search.query", start, mid, float64(kept))
		l.add("trace.scored_docs", mid, time.Now(), float64(scored))
	}
}

func (b *bench) set(name string, v float64) { b.vals[name] = v }

// score is the normalized score of t on inst.
func (b *bench) score(t *tree.Tree, inst *oct.Instance, cfg oct.Config) float64 {
	return tree.NewScorer(t).NormalizedScore(inst, cfg)
}

// publish publishes t and returns the CPU time it took. In a traced run
// the read index is rebuilt once more outside the publish, as the estimate
// of the publish's tree.read_index child.
func (b *bench) publish(l *lane, pub *serve.Publisher, t *tree.Tree) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	l.begin("serve.publish")
	start, cpu0 := time.Now(), threadCPU()
	pub.Publish(t)
	cpu := threadCPU() - cpu0
	publishSpan := len(l.spans) - 1
	l.end()
	if l.on {
		rs := time.Now()
		tree.BuildReadIndex(t)
		d := time.Since(rs)
		l.add("trace.read_index_replay", rs, time.Now(), 0)
		l.addChild(publishSpan, "tree.read_index", start, start.Add(d), 0)
	}
	return cpu
}

// publishRepeated publishes t sz.publishes times and returns each publish's
// CPU time in milliseconds. The build's garbage is collected first, so the
// publishes measure the publish and not that collection.
func (b *bench) publishRepeated(pub *serve.Publisher, t *tree.Tree) []float64 {
	b.main.timed("driver.gc", runtime.GC)
	out := make([]float64, b.sz.publishes)
	for i := range out {
		out[i] = millis(b.publish(b.main, pub, t))
	}
	return out
}

// buildWorkload is build-jaccard and build-pr: builds from the raw catalog
// and log of each of the pipeline's sub-datasets, round after round while
// the build budget lasts, then reads over the sub-datasets' trees. A
// single dataset's build time and score depend on its seed (the MIS search
// of build-pr by a factor of two), so the run reports means over the
// sub-datasets, each built at least once.
func (b *bench) buildWorkload(p pipeline) error {
	// Set-up is the sub-datasets' generation, repeated.
	raws := make([]*dataset.Raw, p.datasets)
	var setups []float64
	for i := 0; i < b.sz.setups; i++ {
		b.main.begin("driver.setup")
		start := time.Now()
		for k := range raws {
			var err error
			raws[k], err = b.generate(p.sub(k))
			b.op("setup", err)
			if err != nil {
				b.main.end()
				return err
			}
		}
		setups = append(setups, seconds(time.Since(start)))
		b.main.end()
	}
	b.set("setup_s", median(setups))

	measureStart := time.Now()
	readBudget := b.budget(0.4)
	pub := serve.NewPublisher(nil, 0)
	firsts := make([]built, p.datasets)
	scores := make([]float64, p.datasets)
	times := make([][]float64, p.datasets)
	// publish50 and publish90 hold, per sub-dataset, each build's publish
	// quantiles.
	publish50, publish90 := make([][]float64, p.datasets), make([][]float64, p.datasets)
	var invalid, differ, layeredDiffer, unstable, builds int
	for n := 0; n < p.datasets || time.Since(measureStart) < b.budget(1)-readBudget; n++ {
		k := n % p.datasets
		raw, sp := raws[k], p.sub(k)
		var bt built
		var err error
		if b.opt.traced {
			// Pair an untraced reference build with the traced one, in
			// alternating order: the pair gives the tracing overhead and
			// the equality check.
			var ref built
			reference := func() error {
				var err error
				b.main.timed("trace.reference", func() { ref, err = b.buildPlain(raw, sp) })
				b.op("build", err)
				b.samples["trace.reference_build_s"] = append(b.samples["trace.reference_build_s"], seconds(ref.took))
				return err
			}
			if n%2 == 0 {
				if err := reference(); err != nil {
					return err
				}
			}
			bt, err = b.buildLayered(raw, sp)
			b.op("build", err)
			if err != nil {
				return err
			}
			if n%2 == 1 {
				if err := reference(); err != nil {
					return err
				}
			}
			b.main.timed("check.layered_equal", func() {
				want := ref.res
				if !reflect.DeepEqual(ref.inst, bt.inst) {
					// preprocess.Run gave the two builds different
					// instances; compare against ctcr.BuildContext on the
					// layered build's own.
					want, err = ctcr.BuildContext(b.ctx, bt.inst, sp.cfg, ctcr.DefaultOptions())
				}
				if err == nil && (!treediff.Equal(bt.res.Tree, want.Tree) || b.score(bt.res.Tree, bt.inst, sp.cfg) != b.score(want.Tree, bt.inst, sp.cfg)) {
					layeredDiffer++
				}
			})
			if err != nil {
				return err
			}
		} else {
			bt, err = b.buildPlain(raw, sp)
			b.op("build", err)
			if err != nil {
				return err
			}
			times[k] = append(times[k], seconds(bt.cpu))
		}
		var score float64
		b.main.timed("tree.score", func() { score = b.score(bt.res.Tree, bt.inst, sp.cfg) })
		b.main.timed("check.validate", func() {
			if bt.res.Tree.Validate(sp.cfg) != nil {
				invalid++
			}
			switch {
			case n < p.datasets:
				firsts[k], scores[k] = bt, score
			case !reflect.DeepEqual(firsts[k].inst, bt.inst):
				unstable++
			case !treediff.Equal(firsts[k].res.Tree, bt.res.Tree) || score != scores[k]:
				differ++
			}
		})
		pt := b.publishRepeated(pub, bt.res.Tree)
		publish50[k] = append(publish50[k], quantile(pt, 0.5))
		publish90[k] = append(publish90[k], quantile(pt, 0.9))
		builds++
	}
	b.check("validate", invalid == 0, "%d of %d built trees fail tree.Validate", invalid, builds)
	b.check("deterministic", differ == 0, "%d of %d rebuilds of an identical instance differ from its first build (tree or score)", differ, builds-p.datasets-unstable)
	if unstable > 0 {
		b.note("preprocess.Run gave %d of %d rebuilds a different instance than the same raw input's first build", unstable, builds-p.datasets)
	}
	if b.opt.traced {
		b.check("layered_equal", layeredDiffer == 0, "%d layer-by-layer builds differ from ctcr.BuildContext (tree or score)", layeredDiffer)
	}
	b.set("build_cpu_s", meanOfMedians(times))
	b.set("score", mean(scores))
	b.set("publish_cpu_p50_ms", meanOfMedians(publish50))
	b.set("publish_cpu_p90_ms", meanOfMedians(publish90))

	// Reads go over every sub-dataset: the tree of
	// its first build, its catalog and its query log, so that what is read
	// does not depend on how many builds fit in the budget.
	srv := b.newServer(p.cfg)
	for k, raw := range raws {
		pub := serve.NewPublisher(nil, 0)
		b.publish(b.main, pub, firsts[k].res.Tree)
		srv.addCatalog(pub, b.searchIndex(raw), firsts[k].inst, raw.Log)
	}
	if err := b.serveLoad(srv, b.sz.readRate, readBudget, 0, nil); err != nil {
		return err
	}
	b.finish()
	return nil
}

// meanOfMedians is the mean over sub-datasets of the median of each
// sub-dataset's values (sub-datasets without values left out): a run
// builds every sub-dataset at least once and some more often.
func meanOfMedians(perSub [][]float64) float64 {
	var ms []float64
	for _, xs := range perSub {
		if len(xs) > 0 {
			ms = append(ms, median(xs))
		}
	}
	return mean(ms)
}

// queryText normalizes a q= query the way the read handler does before it
// searches.
func queryText(q string) string { return strings.Join(text.Tokenize(q), " ") }
