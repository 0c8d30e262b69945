package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"categorytree/internal/ctcr"
	"categorytree/internal/delta"
	"categorytree/internal/experiments"
	"categorytree/internal/intset"
	"categorytree/internal/obs/trace"
	"categorytree/internal/oct"
	"categorytree/internal/serve"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/treediff"
	"categorytree/internal/xrand"
)

// checkValid records a tree.Validate check.
func (b *bench) checkValid(t *tree.Tree, cfg oct.Config) {
	b.main.timed("check.validate", func() {
		err := t.Validate(cfg)
		b.check("validate", err == nil, "tree.Validate: %v", err)
	})
}

// churn is serve-churn's writer: a warm delta engine whose batches land
// through Apply, Rebuild and Publish.
type churn struct {
	b   *bench
	eng *delta.Engine
	pub *serve.Publisher
	// mu serializes batches (two workers may both hold one when a batch
	// runs late); rng draws each batch's mutations in landing order, so the
	// batch sequence is a function of the seed alone.
	mu        sync.Mutex
	rng       *xrand.RNG
	size      int
	last      *delta.Build
	invalid   int
	hits, all int
	edits     []float64
}

// churnCfg is the Exact regime of octbench -exp churn.
var churnCfg = oct.Config{Variant: sim.Exact}

// seedEngine builds a warm engine over inst: the seeding analysis in span
// delta.seed, then the first rebuild, with the program's own spans of both
// copied onto the main lane. It returns the process CPU time both took.
func (b *bench) seedEngine(inst *oct.Instance) (*delta.Engine, *delta.Build, time.Duration, error) {
	l := b.main
	ctx, rec, origin := b.recording(l)
	start := processCPU()
	l.begin("delta.seed")
	eng, err := delta.NewContext(ctx, inst, churnCfg, delta.DefaultOptions())
	l.harvest(rec, origin)
	l.end()
	if err != nil {
		return nil, nil, 0, err
	}
	ctx, rec, origin = b.recording(l)
	build, err := eng.Rebuild(ctx)
	l.harvest(rec, origin)
	return eng, build, processCPU() - start, err
}

// recording returns a context carrying a fresh trace recorder when l is
// traced, so the program's own spans can be copied onto l afterwards.
func (b *bench) recording(l *lane) (context.Context, *trace.Recorder, time.Time) {
	if !l.on {
		return b.ctx, nil, time.Time{}
	}
	rec := trace.New()
	origin := time.Now()
	rec.Reset(origin)
	return trace.WithRecorder(b.ctx, rec), rec, origin
}

// land applies one batch, rebuilds and publishes; it returns when the new
// snapshot is live, with the CPU time the batch took on the calling thread,
// to which the caller is locked. The batch's work runs on that thread: the
// engine repairs its conflict graph without the analysis's worker pool.
func (c *churn) land(l *lane) (time.Time, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.on {
		l.begin("driver.batch")
		defer l.end()
	}
	cpu0 := threadCPU()
	muts := c.mutations()
	ctx, rec, origin := c.b.recording(l)
	_, err := c.eng.Apply(ctx, muts)
	var build *delta.Build
	if err == nil {
		build, err = c.eng.Rebuild(ctx)
	}
	l.harvest(rec, origin)
	if err != nil {
		return time.Now(), threadCPU() - cpu0, err
	}
	c.b.publish(l, c.pub, build.Result.Tree)
	published, cpu := time.Now(), threadCPU()-cpu0
	c.last = build
	c.hits += build.CacheHits
	c.all += build.CacheHits + build.CacheMisses
	if build.Edits != nil {
		e := build.Edits
		c.edits = append(c.edits, float64(len(e.Removes)+len(e.Adds)+len(e.Grafts)+len(e.Sets)))
	}
	if l.on {
		l.begin("check.validate")
	}
	if build.Result.Tree.Validate(churnCfg) != nil {
		c.invalid++
	}
	l.end()
	return published, cpu, nil
}

// mutations draws one batch: about 40% reweights, 30% removes and 30% adds,
// the adds drawn from the per-group item pools experiments.SyntheticScale
// uses, so the catalog keeps its shape.
func (c *churn) mutations() []delta.Mutation {
	const poolSize = 12
	universe := c.eng.Universe()
	slots := c.eng.Stats().Slots
	used := make(map[int]bool, c.size)
	target := func() (int, bool) {
		for tries := 0; tries < 64; tries++ {
			id := c.rng.Intn(slots)
			if c.eng.Live(id) && !used[id] {
				used[id] = true
				return id, true
			}
		}
		return 0, false
	}
	muts := make([]delta.Mutation, 0, c.size)
	for len(muts) < c.size {
		switch r := c.rng.Float64(); {
		case r < 0.3:
			base := c.rng.Intn(universe/poolSize) * poolSize
			size := 2 + c.rng.Intn(4)
			items := make([]intset.Item, size)
			for i, v := range c.rng.SampleK(poolSize, size) {
				items[i] = intset.Item(base + v)
			}
			muts = append(muts, delta.Add(items, 1+c.rng.Float64()*9, ""))
		case r < 0.6:
			if id, ok := target(); ok {
				muts = append(muts, delta.Remove(id))
			}
		default:
			if id, ok := target(); ok {
				muts = append(muts, delta.Reweight(id, 1+c.rng.Float64()*9))
			}
		}
	}
	return muts
}

// serveChurn is writes beside reads: a warm delta engine over the
// SyntheticScale Exact instance takes mutation batches on a fixed schedule
// while items= reads arrive at a fixed rate.
func (b *bench) serveChurn() error {
	var (
		inst   *oct.Instance
		eng    *delta.Engine
		first  *delta.Build
		pub    *serve.Publisher
		setups []float64
		builds []float64
	)
	for i := 0; i < b.sz.setups; i++ {
		b.main.begin("driver.setup")
		start := time.Now()
		b.main.timed("dataset.generate", func() { inst = experiments.SyntheticScale(b.opt.seed, b.sz.churnSets) })
		var took time.Duration
		var err error
		eng, first, took, err = b.seedEngine(inst)
		b.op("setup", err)
		if err != nil {
			b.main.end()
			return err
		}
		builds = append(builds, seconds(took))
		pub = serve.NewPublisher(nil, 0)
		b.publish(b.main, pub, first.Result.Tree)
		setups = append(setups, seconds(time.Since(start)))
		b.main.end()
	}
	b.set("setup_s", median(setups))
	b.set("build_cpu_s", median(builds))
	b.checkValid(first.Result.Tree, churnCfg)
	if b.opt.traced {
		st := eng.Stats()
		b.set("conflict.pairs2", float64(st.Conflicts2))
		b.set("conflict.must_pairs", float64(st.MustPairs))
		b.set("conflict.triples", float64(st.Conflicts3))
	}

	size := int(b.sz.batchFrac * float64(b.sz.churnSets))
	if size < 1 {
		size = 1
	}
	c := &churn{b: b, eng: eng, pub: pub, rng: xrand.New(b.opt.seed).Split(7), size: size, last: first}
	srv := b.newServer(churnCfg)
	srv.batch = c.land
	srv.addCatalog(pub, nil, inst, nil)
	reseeds0 := eng.Stats().Reseeds
	// The score is taken after the fixed-rate phase, whose batch count the
	// run length fixes, so it is a function of the seed and the length.
	scoreFixed := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		b.main.timed("tree.score", func() { b.set("score", b.score(c.last.Result.Tree, c.last.Instance, churnCfg)) })
	}
	if err := b.serveLoad(srv, b.sz.churnRate, b.budget(1), b.sz.batchEvery, scoreFixed); err != nil {
		return err
	}
	b.check("validate_batches", c.invalid == 0, "%d of the published batch trees fail tree.Validate", c.invalid)
	if b.opt.traced {
		if c.all > 0 {
			b.set("delta.mis_cache_hit_ratio", float64(c.hits)/float64(c.all))
		}
		b.set("delta.reseeds", float64(eng.Stats().Reseeds-reseeds0))
		b.set("delta.edits_p50", median(c.edits))
		b.misResult(c.last.Result.MIS)
		b.set("ctcr.selected", float64(len(c.last.Result.Selected)))
		b.set("ctcr.categories", float64(c.last.Result.Tree.Len()))
	}

	// The final tree must equal a from-scratch build of the live catalog.
	var err error
	b.main.timed("check.compact_rebuild", func() {
		compact, stableOf := eng.Compact()
		var ref *ctcr.Result
		ref, err = ctcr.BuildContext(b.ctx, compact, churnCfg, ctcr.DefaultOptions())
		if err != nil {
			return
		}
		ref.Tree.Walk(func(n *tree.Node) {
			if len(n.Covers) == 0 {
				return
			}
			stamped := make([]oct.SetID, len(n.Covers))
			for i, q := range n.Covers {
				stamped[i] = oct.SetID(stableOf[q])
			}
			n.SetCovers(stamped)
		})
		same := treediff.Equal(c.last.Result.Tree, ref.Tree)
		b.check("compact_equal", same, "final delta tree vs ctcr.BuildContext on Engine.Compact(): equal=%v after %d batches", same, eng.Stats().Rebuilds-1)
	})
	if err != nil {
		return fmt.Errorf("reference build: %w", err)
	}
	b.finish()
	return nil
}
