package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"categorytree/internal/intset"
	"categorytree/internal/obs"
	"categorytree/internal/obs/flight"
	"categorytree/internal/obs/trace"
	"categorytree/internal/oct"
	"categorytree/internal/queries"
	"categorytree/internal/search"
	"categorytree/internal/serve"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

// request is one distinct /categorize request of the pool.
type request struct {
	http *http.Request
	id   string
	// items is the explicit result set of an items= request; query the
	// text of a q= request.
	items intset.Set
	query string
	cat   *catalog
}

// catalog is one published tree with the search index over its catalog and
// the indices of its requests in the server's pool. itemPop and queryPop
// draw its items= and q= requests by popularity.
type catalog struct {
	pub               *serve.Publisher
	rd                *serve.Reader
	search            *search.Index
	itemReqs, queries []int
	itemPop, queryPop popularity
}

// server is the in-process read service: one or more catalogs, each a
// publisher with a reader over it, and the flight recorder wrapping each
// request the way octserve's instrument wrapper does. Every read goes to a
// catalog drawn uniformly, so that the latency figures of a run do not hinge
// on the few most popular result sets of one generated catalog. Requests go
// straight to the handler, without HTTP transport, so the numbers are the
// handler's rather than the loopback network's.
type server struct {
	b     *bench
	reg   *obs.Registry
	ep    *flight.Endpoint
	hist  *obs.Histogram
	cfg   oct.Config
	delta float64
	cats  []*catalog
	reqs  []request
	// streams counts the phases run per phase name.
	streams map[string]int64
	// replays memoizes traced runs' q= search replays by request.
	replayMu sync.Mutex
	replays  map[int]searchReplay
	// batch, when set, lands one mutation batch and publishes the result;
	// it returns when the new snapshot was published, with the CPU time the
	// calling thread spent until then.
	batch func(l *lane) (time.Time, time.Duration, error)
}

// spinWindow is how long before a job's due time a sleeping worker wakes
// and then spins: an idle virtual processor can take hundreds of
// microseconds to be scheduled again, which would otherwise set the tail of
// every fast request.
const spinWindow = 100 * time.Microsecond

// windowReads is the size of the windows whose quantiles are reported as
// medians: 1000 reads leave 10 beyond a window's p99. A machine stall of a
// few tens of milliseconds delays every request due in it, and a garbage
// collection cycle makes the requests it overlaps pay its assists; either
// moves one or two windows' p99 and not the median over windows.
const windowReads = 1000

// queryEvery places one q= request among every queryEvery reads (5%) when
// the pool has q= requests. The share is an assumption: neither the paper
// nor the dataset generator gives the share of reads that arrive as query
// text rather than as a result set.
const queryEvery = 20

// phaseStream gives each phase name its own request stream.
var phaseStream = map[string]int64{"read-fixed": 1001}

// minScore and limit are the read handler's q= search parameters.
const (
	readSearchMinScore = 0.8
	readSearchLimit    = 100
)

// newServer returns a read service without catalogs; addCatalog adds them.
func (b *bench) newServer(cfg oct.Config) *server {
	reg := obs.NewRegistry()
	hist := reg.Histogram("http.categorize/latency")
	rec := flight.New(flight.Options{
		Registry:         reg,
		LatencyHistogram: func(string) *obs.Histogram { return hist },
	})
	delta := cfg.Delta
	if cfg.Variant == sim.Exact {
		delta = 1
	}
	return &server{
		b:       b,
		reg:     reg,
		ep:      rec.Endpoint("categorize"),
		hist:    hist,
		streams: make(map[string]int64),
		replays: make(map[int]searchReplay),
		cfg:     cfg,
		delta:   delta,
	}
}

// addCatalog serves pub through a reader of its own (ix, when not nil,
// resolves its q= requests) and adds the catalog's requests to the pool:
// one items= request per input set of inst, carrying the set's items, and
// one q= request per query of the log. preprocess.Run makes each logged
// query's result set an input set weighted by the query's mean daily
// frequency, so reads draw items= requests by set weight and q= requests by
// that frequency: popularity, and with it the response cache's hit ratio,
// comes from the generated data.
func (s *server) addCatalog(pub *serve.Publisher, ix *search.Index, inst *oct.Instance, log []queries.RawQuery) {
	c := &catalog{pub: pub, search: ix, rd: serve.NewReader(pub, serve.Options{
		Variant: s.cfg.Variant, Delta: s.delta, Search: ix,
		SearchMinScore: readSearchMinScore, SearchLimit: readSearchLimit, Registry: s.reg,
	})}
	s.cats = append(s.cats, c)
	var itemW, queryW []float64
	for _, set := range inst.Sets {
		var sb strings.Builder
		sb.WriteString("/categorize?items=")
		for k, it := range set.Items.Slice() {
			if k > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(int(it)))
		}
		c.itemReqs = append(c.itemReqs, s.add(request{http: mustRequest(sb.String()), items: set.Items, cat: c}))
		itemW = append(itemW, set.Weight)
	}
	for _, q := range log {
		if w := q.AvgPerDay(); w > 0 {
			c.queries = append(c.queries, s.add(request{http: mustRequest("/categorize?q=" + url.QueryEscape(q.Text)), query: q.Text, cat: c}))
			queryW = append(queryW, w)
		}
	}
	c.itemPop, c.queryPop = newPopularity(itemW), newPopularity(queryW)
}

// popularity draws indices with probability proportional to their weights.
type popularity []float64 // cumulative weights

func newPopularity(weights []float64) popularity {
	cum := make(popularity, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	return cum
}

// at is the index at u in [0, 1) of the weights' cumulative distribution.
func (p popularity) at(u float64) int {
	i := sort.SearchFloat64s(p, u*p[len(p)-1])
	if i == len(p) {
		i--
	}
	return i
}

// golden is a golden-ratio (Kronecker) sequence in [0, 1). Requests are
// drawn through it rather than by independent draws: successive values
// spread evenly, so every window of reads carries the catalogs and their
// popularity distributions in almost exact proportion, where independent
// draws would give a sample of them that differs from window to window and
// from run to run.
type golden float64

func (g *golden) next() float64 {
	const step = 0.6180339887498949 // 1/φ
	*g = golden(math.Mod(float64(*g)+step, 1))
	return float64(*g)
}

// add appends r to the pool and returns its index.
func (s *server) add(r request) int {
	r.id = "perfbench-" + strconv.Itoa(len(s.reqs))
	s.reqs = append(s.reqs, r)
	return len(s.reqs) - 1
}

func mustRequest(target string) *http.Request {
	r, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		panic("perfbench: building request " + target + ": " + err.Error())
	}
	return r
}

// respWriter discards the body unless keep is set, and records the status.
type respWriter struct {
	h      http.Header
	status int
	keep   bool
	body   []byte
}

func (w *respWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.keep {
		w.body = append(w.body, p...)
	}
	return len(p), nil
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) reset() {
	w.status = 0
	w.body = w.body[:0]
}

// do serves pool request idx on lane l.
func (s *server) do(l *lane, w *respWriter, idx int) error {
	r := &s.reqs[idx]
	t0 := time.Now()
	if l.on {
		l.beginAt("flight.request", t0)
	}
	fq, fctx := s.ep.StartAt(r.http.Context(), r.id, false, t0)
	w.reset()
	r.cat.rd.Categorize(w, r.http.WithContext(fctx))
	d := time.Since(t0)
	s.hist.ObserveTrace(d, r.id)
	category := -1
	if l.on {
		hs := time.Now()
		n := len(l.spans)
		l.harvest(trace.FromContext(fctx), t0)
		for i := n; i < len(l.spans); i++ {
			if l.spans[i].name == "serve.categorize" {
				category = i
				break
			}
		}
		l.add("trace.harvest", hs, time.Now(), 0)
	}
	status := w.status
	fq.FinishLatency(status, d)
	l.end()
	if l.on && r.query != "" && category >= 0 {
		// The handler's search has no span of its own: time the same search
		// once per distinct query and record that as an estimated child of
		// the handler span.
		rs := time.Now()
		rp := s.replay(idx)
		l.add("trace.search_replay", rs, time.Now(), float64(rp.scored))
		cs := l.spans[category].start
		l.addChild(category, "search.query", cs, cs.Add(rp.took), float64(rp.kept))
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return nil
}

// searchReplay is one q= query's search, timed outside the handler.
type searchReplay struct {
	took         time.Duration
	kept, scored int
}

// replay returns the search replay of q= request idx, running it the first
// time the request is seen.
func (s *server) replay(idx int) searchReplay {
	s.replayMu.Lock()
	defer s.replayMu.Unlock()
	if rp, ok := s.replays[idx]; ok {
		return rp
	}
	r := &s.reqs[idx]
	q := queryText(r.query)
	start := time.Now()
	kept := len(r.cat.search.Search(q, readSearchMinScore, readSearchLimit))
	rp := searchReplay{took: time.Since(start), kept: kept, scored: len(r.cat.search.Search(q, 0, 0))}
	s.replays[idx] = rp
	return rp
}

type jobKind int

const (
	readJob jobKind = iota
	batchJob
)

type job struct {
	// due is the offset from the phase's start.
	due  time.Duration
	kind jobKind
	idx  int
}

// phaseStats is one load phase's outcome.
type phaseStats struct {
	lat      []float64 // µs, read due → done
	cpu      []float64 // µs, the read's CPU time, parallel to lat
	latDue   []float64 // s, each read's due offset, parallel to lat
	wait     []float64 // µs, due → handler or batch start
	lag      []float64 // µs, due → woken, for jobs a worker slept for
	service  []float64 // µs, job start → done, trace work included
	batchCPU []float64 // ms, a batch's CPU time from its start to publish
	failed   int64
	hits     int64
	misses   int64
}

// workerStats is one worker's share of a phase, merged at the end.
type workerStats struct {
	phaseStats
	lane *lane
}

// schedule lays out one phase's jobs by due time: reads every 1/rate, and
// a batch every batchEvery when the server has them. Each phase draws its
// own request stream from the seed, the phase's name and how many phases
// of that name ran before it.
func (s *server) schedule(name string, rate float64, dur, batchEvery time.Duration) []job {
	s.streams[name]++
	rng := xrand.New(s.b.opt.seed).Split(phaseStream[name]*1000 + s.streams[name])
	nReads := int(rate * dur.Seconds())
	nBatches := 0
	if s.batch != nil && batchEvery > 0 {
		nBatches = int(dur / batchEvery)
	}
	jobs := make([]job, 0, nReads+nBatches)
	itemSeq, querySeq := golden(rng.Float64()), golden(rng.Float64())
	interval := time.Duration(float64(time.Second) / rate)
	for r, k := 0, 1; r < nReads || k <= nBatches; {
		readDue := time.Duration(r) * interval
		batchDue := time.Duration(k) * batchEvery
		if k <= nBatches && (r >= nReads || batchDue < readDue) {
			jobs = append(jobs, job{due: batchDue, kind: batchJob})
			k++
			continue
		}
		// Every queryEvery-th read is a q= request. Each kind draws from
		// its own sequence a catalog, uniformly, and a request of that
		// catalog by popularity.
		query := r%queryEvery == queryEvery-1
		u := itemSeq.next()
		if query {
			u = querySeq.next()
		}
		k := int(u * float64(len(s.cats)))
		c, v := s.cats[k], u*float64(len(s.cats))-float64(k)
		idx := c.itemReqs[c.itemPop.at(v)]
		if query && len(c.queries) > 0 {
			idx = c.queries[c.queryPop.at(v)]
		}
		jobs = append(jobs, job{due: readDue, kind: readJob, idx: idx})
		r++
	}
	return jobs
}

// runPhase runs one phase open loop: every job has a due time fixed in
// advance, and a job waits for a free worker whatever happened to earlier
// ones, so a stall shows as latency of the jobs behind it. There is no
// separate generator: each of the GOMAXPROCS workers claims the next job
// in due order and, when it is early, sleeps until the job is due. At most
// GOMAXPROCS goroutines therefore run requests and batches.
func (s *server) runPhase(name string, rate float64, dur, batchEvery time.Duration, traced bool) *phaseStats {
	sched := s.schedule(name, rate, dur, batchEvery)
	reads, batches := s.b.phase(name), (*phase)(nil)
	if s.batch != nil {
		batches = s.b.phase("churn-batch")
	}
	hits0, misses0 := s.counters()
	workers := runtime.GOMAXPROCS(0)
	ws := make([]*workerStats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	if traced {
		s.b.main.begin("driver.window")
	}
	t0 := start.Add(2 * time.Millisecond)
	for i := range ws {
		ws[i] = &workerStats{lane: &lane{on: traced, from: start}}
		wg.Add(1)
		go func(st *workerStats) {
			defer wg.Done()
			s.worker(st, sched, t0, &next, reads, batches)
		}(ws[i])
	}
	wg.Wait()
	end := time.Now()
	if traced {
		s.b.main.end()
	}

	out := &phaseStats{}
	for _, st := range ws {
		out.lat = append(out.lat, st.lat...)
		out.cpu = append(out.cpu, st.cpu...)
		out.latDue = append(out.latDue, st.latDue...)
		out.wait = append(out.wait, st.wait...)
		out.lag = append(out.lag, st.lag...)
		out.service = append(out.service, st.service...)
		out.batchCPU = append(out.batchCPU, st.batchCPU...)
		out.failed += st.failed
		if traced {
			st.lane.to = end
			s.b.workerLanes = append(s.b.workerLanes, st.lane)
		}
	}
	hits1, misses1 := s.counters()
	out.hits, out.misses = hits1-hits0, misses1-misses0
	return out
}

func (s *server) counters() (hits, misses int64) {
	snap := s.reg.Snapshot()
	return snap.Counters["readcache/hits"], snap.Counters["readcache/misses"]
}

// worker claims jobs in due order until the schedule is done. Time spent
// idle, including sleeping until a job is due, is recorded as driver.wait.
// The worker is locked to its thread, so the thread's CPU clock times its
// jobs.
func (s *server) worker(st *workerStats, sched []job, t0 time.Time, next *atomic.Int64, reads, batches *phase) {
	unpin := pinSleeper()
	defer unpin()
	l := st.lane
	w := &respWriter{}
	idle := l.from
	for {
		i := int(next.Add(1) - 1)
		if i >= len(sched) {
			break
		}
		j := sched[i]
		due := t0.Add(j.due)
		if time.Now().Before(due) {
			sleepUntil(due.Add(-spinWindow))
			for time.Now().Before(due) {
			}
			st.lag = append(st.lag, micros(time.Since(due)))
		}
		begin := time.Now()
		l.add("driver.wait", idle, begin, 0)
		st.wait = append(st.wait, micros(begin.Sub(due)))
		switch j.kind {
		case readJob:
			cpu0 := threadCPU()
			err := s.do(l, w, j.idx)
			st.cpu = append(st.cpu, micros(threadCPU()-cpu0))
			st.lat = append(st.lat, micros(time.Since(due)))
			st.latDue = append(st.latDue, j.due.Seconds())
			if err != nil {
				st.failed++
			}
			reads.count(err)
		case batchJob:
			_, cpu, err := s.batch(l)
			st.batchCPU = append(st.batchCPU, millis(cpu))
			if err != nil {
				st.failed++
			}
			batches.count(err)
		}
		st.service = append(st.service, micros(time.Since(begin)))
		idle = time.Now()
	}
	l.add("driver.wait", idle, time.Now(), 0)
}

// windowed splits the phase's reads, in due order, into as many equal
// windows of at least windowReads as they fill (one if they fill none) and
// returns f of each window's values of xs (lat or cpu).
func (p *phaseStats) windowed(xs []float64, f func([]float64) float64) []float64 {
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.latDue[order[a]] < p.latDue[order[b]] })
	n := len(order) / windowReads
	if n == 0 {
		n = 1
	}
	var out []float64
	for k := 0; k < n; k++ {
		var w []float64
		for _, i := range order[k*len(order)/n : (k+1)*len(order)/n] {
			w = append(w, xs[i])
		}
		out = append(out, f(w))
	}
	return out
}

// windowQuantile is the q-quantile of a window.
func windowQuantile(q float64) func([]float64) float64 {
	return func(w []float64) float64 { return quantile(w, q) }
}

// perCPUSecond is a window's reads per second of CPU time (w in µs).
func perCPUSecond(w []float64) float64 {
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if sum <= 0 {
		return 0
	}
	return float64(len(w)) / (sum / 1e6)
}

// serveLoad is every workload's read stage, given budget seconds of it.
// Untraced, it runs one fixed-rate phase for the whole budget and reports
// the reads' CPU time and, with batches, the batches' CPU time. Traced, it
// runs the fixed-rate phase twice, untraced then traced, for the open-loop
// latency, the tracing overhead and the per-layer read metrics. Either way
// it ends by checking a fixed sample of responses against the exhaustive
// scorer. afterFixed, when not nil, runs right after the (untraced)
// fixed-rate phase.
func (b *bench) serveLoad(s *server, rate float64, budget, batchEvery time.Duration, afterFixed func()) error {
	// Collect what set-up and builds left behind, so that reads measure the
	// service's steady state rather than the collection of that garbage.
	b.main.timed("driver.gc", runtime.GC)
	if !b.opt.traced {
		p := s.runPhase("read-fixed", rate, budget, batchEvery, false)
		b.set("categorize_cpu_p50_us", median(p.windowed(p.cpu, windowQuantile(0.5))))
		b.set("categorize_cpu_p99_us", median(p.windowed(p.cpu, windowQuantile(0.99))))
		b.set("categorize_rps_per_cpu", median(p.windowed(p.cpu, perCPUSecond)))
		if s.batch != nil {
			b.set("publish_cpu_p50_ms", quantile(p.batchCPU, 0.5))
			b.set("publish_cpu_p90_ms", quantile(p.batchCPU, 0.9))
		}
		if afterFixed != nil {
			afterFixed()
		}
	} else {
		half := budget / 2
		// Time each q= query's search up front, so that the traced phase
		// pays only for recording spans.
		b.main.timed("trace.search_replay", func() {
			for _, c := range s.cats {
				for _, i := range c.queries {
					s.replay(i)
				}
			}
		})
		var ref *phaseStats
		b.main.timed("trace.reference", func() { ref = s.runPhase("read-fixed", rate, half, batchEvery, false) })
		b.set("driver.categorize_p50_us", median(ref.windowed(ref.lat, windowQuantile(0.5))))
		b.set("driver.categorize_p99_us", median(ref.windowed(ref.lat, windowQuantile(0.99))))
		if afterFixed != nil {
			afterFixed()
		}
		traced := s.runPhase("read-fixed", rate, half, batchEvery, true)
		b.set("driver.lag_p99_us", quantile(traced.lag, 0.99))
		b.set("driver.queue_wait_p99_us", quantile(traced.wait, 0.99))
		if n := traced.hits + traced.misses; n > 0 {
			b.set("serve.cache_hit_ratio", float64(traced.hits)/float64(n))
		}
		if m := mean(ref.service); m > 0 {
			b.set("trace.overhead_share", mean(traced.service)/m-1)
		}
	}
	return b.checkSample(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sample returns the catalog's fixed check sample: its first n requests, a
// quarter of them q= requests when it has those.
func (c *catalog) sample(n int) []int {
	nq := n / 4
	if nq > len(c.queries) {
		nq = len(c.queries)
	}
	ni := n - nq
	if ni > len(c.itemReqs) {
		ni = len(c.itemReqs)
	}
	return append(append([]int(nil), c.itemReqs[:ni]...), c.queries[:nq]...)
}

// checkSample serves a fixed sample of each catalog's requests once more and
// checks each response against the exhaustive tree.Scorer on the catalog's
// served snapshot:
// same score, and a category that reaches it. A q= response is checked
// against the result set the checker's own search resolves. That search is
// not deterministic (search.Index.Search sums a query's term scores in map
// order, so near-equal scores can trade places at the limit), so the checker
// searches up to searchTries times and accepts a response that matches any
// of the result sets it saw. A response that matches none fails the check
// when every search gave the same set, and is recorded as a note when they
// differed, since the handler may then have resolved yet another set.
func (b *bench) checkSample(s *server) error {
	const searchTries = 3
	var bad []string
	checked, unsure := 0, 0
	for _, c := range s.cats {
		snap := c.pub.Current()
		if snap == nil {
			return fmt.Errorf("no snapshot published")
		}
		b.main.begin("check.categorize")
		scorer := tree.NewScorer(snap.Tree)
		matches := func(got serve.CategorizeResult, items intset.Set) bool {
			want, wantScore := scorer.BestCover(s.cfg.Variant, items, s.delta)
			if got.Score != wantScore || got.Matched != (want != nil) {
				return false
			}
			if got.Category != nil {
				n := snap.Tree.Node(*got.Category)
				return sim.Score(s.cfg.Variant, items, n.Items, s.delta) == wantScore
			}
			return true
		}
		w := &respWriter{keep: true}
		for _, i := range c.sample(b.sz.sample) {
			r := &s.reqs[i]
			checked++
			w.reset()
			c.rd.Categorize(w, r.http)
			var got serve.CategorizeResult
			if w.status != http.StatusOK {
				bad = append(bad, fmt.Sprintf("request %d: status %d", i, w.status))
				continue
			}
			if err := json.Unmarshal(w.body, &got); err != nil {
				bad = append(bad, fmt.Sprintf("request %d: %v", i, err))
				continue
			}
			if r.query == "" {
				if !matches(got, r.items) {
					bad = append(bad, fmt.Sprintf("request %d: got score %v, exhaustive scorer disagrees", i, got.Score))
				}
				continue
			}
			var seen []intset.Set
			ok := false
			for try := 0; try < searchTries && !ok; try++ {
				var ids []intset.Item
				for _, h := range c.search.Search(queryText(r.query), readSearchMinScore, readSearchLimit) {
					ids = append(ids, intset.Item(h.Doc))
				}
				items, fresh := intset.New(ids...), true
				for _, prev := range seen {
					fresh = fresh && !items.Equal(prev)
				}
				if fresh {
					seen = append(seen, items)
					ok = matches(got, items)
				}
			}
			switch {
			case ok:
			case len(seen) > 1:
				unsure++
			default:
				bad = append(bad, fmt.Sprintf("request %d (q=): got score %v, exhaustive scorer disagrees", i, got.Score))
			}
		}
		b.main.end()
	}
	if unsure > 0 {
		b.note("%d q= responses matched none of the differing result sets the checker's searches gave; not counted as failures", unsure)
	}
	info := fmt.Sprintf("%d responses match the exhaustive scorer", checked-unsure)
	if len(bad) > 0 {
		info = strings.Join(bad, "; ")
	}
	b.check("categorize_sample", len(bad) == 0, "%s", info)
	return nil
}
