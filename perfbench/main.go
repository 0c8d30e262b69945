// Command perfbench is the repository benchmark. It builds category trees
// from generated raw catalogs and query logs, serves /categorize reads over
// the published trees, and lands catalog churn through the incremental
// engine, timing each workload end to end (untraced runs) or layer by layer
// (traced runs). See README.md in this directory for the workloads, the
// metrics and how to run it.
//
//	go run . --workload build-jaccard --seed 1 --seconds 25 --trace 0
//	go run . --workload all --seed 1 --seconds 25
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit code is non-zero when an output check fails or the workload
// cannot run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metricSpec names one reported metric. The end-to-end list is what an
// untraced run prints; the per-layer list is what a traced run prints. Both
// must match BENCHMARK.json at the repository root.
type metricSpec struct {
	name, unit, better string
}

// endToEnd times builds, reads and publishes in CPU time, which the kernel
// charges only while the work runs: on a virtual machine that shares its
// host, wall-clock latencies move with the other tenants' load (two sets of
// ten runs of the same code put the spread of the open-loop read p99 at up
// to 1.5 of its median), CPU time far less. setup_s is wall time.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"build_cpu_s", "s", "lower"},
	{"score", "ratio", "higher"},
	{"max_rss_mb", "MB", "lower"},
	{"categorize_cpu_p50_us", "us", "lower"},
	{"categorize_cpu_p99_us", "us", "lower"},
	{"categorize_rps_per_cpu", "1/s", "higher"},
	{"publish_cpu_p50_ms", "ms", "lower"},
	{"publish_cpu_p90_ms", "ms", "lower"},
}

// layers are the span prefixes whose self times a traced run reports; with
// trace.unattributed_share they account for the run's lane time.
var layers = []string{
	"dataset", "search", "preprocess", "conflict", "mis", "ctcr", "tree",
	"serve", "flight", "delta", "driver", "check", "trace",
}

var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"search.index_s", "s", "lower"},
		{"search.query_p50_us", "us", "lower"},
		{"search.query_p99_us", "us", "lower"},
		{"search.queries", "count", "lower"},
		{"search.scored_docs", "count", "lower"},
		{"search.kept_ratio", "ratio", "higher"},
		{"dataset.generate_s", "s", "lower"},
		{"preprocess.s", "s", "lower"},
		{"preprocess.sets_out", "count", "lower"},
		{"preprocess.merged", "count", "lower"},
		{"conflict.analyze_s", "s", "lower"},
		{"conflict.pairs2", "count", "lower"},
		{"conflict.must_pairs", "count", "lower"},
		{"conflict.triples", "count", "lower"},
		{"conflict.hypergraph_s", "s", "lower"},
		{"mis.solve_s", "s", "lower"},
		{"mis.nodes", "count", "lower"},
		{"mis.components", "count", "lower"},
		{"mis.fixed", "count", "higher"},
		{"mis.optimal", "ratio", "higher"},
		{"ctcr.assemble_s", "s", "lower"},
		{"ctcr.selected", "count", "higher"},
		{"ctcr.categories", "count", "lower"},
		{"tree.score_s", "s", "lower"},
		{"tree.read_index_s", "s", "lower"},
		{"tree.best_cover_p50_us", "us", "lower"},
		{"tree.candidates_p50", "count", "lower"},
		{"serve.categorize_self_p50_us", "us", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.publish_ms", "ms", "lower"},
		{"delta.apply_p50_ms", "ms", "lower"},
		{"delta.rebuild_p50_ms", "ms", "lower"},
		{"delta.mis_cache_hit_ratio", "ratio", "higher"},
		{"delta.reseeds", "count", "lower"},
		{"delta.edits_p50", "count", "lower"},
		{"driver.lag_p99_us", "us", "lower"},
		{"driver.queue_wait_p99_us", "us", "lower"},
		{"driver.categorize_p50_us", "us", "lower"},
		{"driver.categorize_p99_us", "us", "lower"},
		{"runtime.gc_cpu_share", "ratio", "lower"},
		{"runtime.alloc_mb", "MB", "lower"},
		{"trace.unattributed_share", "ratio", "lower"},
		{"trace.overhead_share", "ratio", "lower"},
		{"trace.lane_s", "s", "lower"},
	}
	for _, l := range layers {
		m = append(m, metricSpec{"self." + l + "_s", "s", "lower"})
	}
	return m
}()

// workloadNames lists the workloads in the order "all" runs them;
// workloads maps each name to its driver.
var workloadNames = []string{"build-jaccard", "build-pr", "serve-churn"}

var workloads = map[string]func(*bench) error{
	"build-jaccard": func(b *bench) error { return b.buildWorkload(jaccardPipeline(b.sz, b.opt.seed)) },
	"build-pr":      func(b *bench) error { return b.buildWorkload(prPipeline(b.sz, b.opt.seed)) },
	"serve-churn":   (*bench).serveChurn,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
}

// phase counts the operations of one phase of a workload. Workers update
// the counters concurrently.
type phase struct {
	name      string
	attempted atomic.Int64
	failed    atomic.Int64
}

type check struct {
	name string
	ok   bool
	info string
}

// bench is one workload run.
type bench struct {
	opt  options
	sz   sizes
	ctx  context.Context
	main *lane
	// workerLanes collects the lanes of every load window's workers.
	workerLanes []*lane
	t0          time.Time
	rt0         runtimeSample

	phases []*phase
	checks []check
	notes  []string
	// vals holds the reported metric values by name.
	vals map[string]float64
	// samples collects per-layer observations made at call sites.
	samples map[string][]float64
}

func newBench(opt options) *bench {
	sz := fullSizes
	if opt.smoke {
		sz = smokeSizes
	}
	return &bench{
		opt:     opt,
		sz:      sz,
		ctx:     context.Background(),
		main:    &lane{on: opt.traced},
		t0:      time.Now(),
		rt0:     readRuntime(),
		vals:    make(map[string]float64),
		samples: make(map[string][]float64),
	}
}

func (b *bench) phase(name string) *phase {
	for _, p := range b.phases {
		if p.name == name {
			return p
		}
	}
	p := &phase{name: name}
	b.phases = append(b.phases, p)
	return p
}

// op counts one operation of the named phase and its outcome. Only the
// main goroutine may call it; workers count through their *phase.
func (b *bench) op(name string, err error) { b.phase(name).count(err) }

func (p *phase) count(err error) {
	p.attempted.Add(1)
	if err != nil {
		p.failed.Add(1)
	}
}

// note records an observation for the report that is not a failed check.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) check(name string, ok bool, format string, args ...any) {
	b.checks = append(b.checks, check{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
}

// budget is the given fraction of the run's measuring time.
func (b *bench) budget(frac float64) time.Duration {
	return time.Duration(frac * b.opt.seconds * float64(time.Second))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errCheck marks a run whose output checks failed.
var errCheck = errors.New("perfbench: output check failed")

// runWorkload runs one workload and returns its result, and the run for
// inspection. The error is errCheck when the run completed but an output
// check failed.
func runWorkload(opt options, log io.Writer) (result, *bench, error) {
	fn, ok := workloads[opt.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("perfbench: unknown workload %q (have %s, all)", opt.workload, strings.Join(workloadNames, ", "))
	}
	b := newBench(opt)
	if err := fn(b); err != nil {
		return result{}, b, fmt.Errorf("perfbench: %s: %w", opt.workload, err)
	}
	if opt.traced {
		b.layerMetrics()
	}
	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	specs := endToEnd
	if opt.traced {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := b.vals[m.name]
		if !ok {
			return result{}, b, fmt.Errorf("perfbench: %s: metric %s was not measured", opt.workload, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for _, p := range b.phases {
		res.Attempted += p.attempted.Load()
		res.Failed += p.failed.Load()
	}
	for _, c := range b.checks {
		res.Correct = res.Correct && c.ok
	}
	report(log, opt, specs, res, b)
	if !res.Correct {
		return res, b, errCheck
	}
	return res, b, nil
}

// report prints the human-readable tables: metrics, phase counts, checks.
func report(w io.Writer, opt options, specs []metricSpec, res result, b *bench) {
	mode := "untraced"
	if opt.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g %s\n", opt.workload, opt.seed, opt.seconds, mode)
	for _, m := range specs {
		fmt.Fprintf(w, "  %-30s %14.6g %-6s (%s is better)\n", m.name, res.Metrics[m.name].Value, m.unit, m.better)
	}
	fmt.Fprintf(w, "  %-30s %10s %10s %10s\n", "phase", "attempted", "succeeded", "failed")
	for _, p := range b.phases {
		a, f := p.attempted.Load(), p.failed.Load()
		fmt.Fprintf(w, "  %-30s %10d %10d %10d\n", p.name, a, a-f, f)
	}
	for _, c := range b.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-24s %-6s %s\n", c.name, status, c.info)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "  note  %s\n", n)
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed: the dataset, request and mutation generators derive from it")
	fs.Float64Var(&opt.seconds, "seconds", 25, "measuring time of one run, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	opt.traced = traceFlag == 1
	if opt.workload == "all" {
		return runAll(opt, stdout, stderr)
	}
	res, _, err := runWorkload(opt, stdout)
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintln(stderr, err)
		return 1
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process (so each reports its
// own peak memory), one after another, and prints a combined result whose
// metric names are prefixed with the workload.
func runAll(opt options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: make(map[string]metricValue)}
	code := 0
	for _, name := range workloadNames {
		childArgs := []string{"--workload", name, "--seed", fmt.Sprint(opt.seed), "--seconds", fmt.Sprint(opt.seconds), "--trace", "0"}
		if opt.traced {
			childArgs[len(childArgs)-1] = "1"
		}
		var out strings.Builder
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(stderr, "perfbench: %s produced no result: %v\n", name, runErr)
			total.Correct = false
			code = 1
			continue
		}
		if runErr != nil {
			code = 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			total.Metrics[name+"/"+k] = res.Metrics[k]
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}
