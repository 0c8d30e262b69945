package main

import (
	"sort"
	"strings"
	"time"

	"categorytree/internal/obs/trace"
)

// The benchmark records its own spans around the calls it makes into each
// layer. Spans live on lanes: one lane per goroutine that does measured work
// (the main goroutine, and each load worker while a load window is open), so
// spans on one lane never overlap except by nesting. That gives every span a
// well-defined self time (its duration minus the time its children cover),
// and makes the accounting exact: the sum over lanes of lane time equals the
// sum of all self times plus whatever no span covered.

// span is one recorded interval. Layer is the prefix of name before the
// first dot.
type span struct {
	name       string
	start, end time.Time
	parent     int // index into the lane's spans, -1 for a lane root
	root       int // index of the lane root this span sits under
	attr       float64
}

// lane is one goroutine's span stack. Not safe for concurrent use; each
// goroutine owns its lane.
type lane struct {
	on    bool
	spans []span
	stack []int
	// from and to bound the lane's accounted time.
	from, to time.Time
}

// begin opens a span under the lane's innermost open span.
func (l *lane) begin(name string) {
	if !l.on {
		return
	}
	l.beginAt(name, time.Now())
}

func (l *lane) beginAt(name string, at time.Time) {
	parent, root := -1, len(l.spans)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
		root = l.spans[parent].root
	}
	l.spans = append(l.spans, span{name: name, start: at, parent: parent, root: root})
	l.stack = append(l.stack, len(l.spans)-1)
}

// end closes the innermost open span.
func (l *lane) end() {
	if !l.on {
		return
	}
	n := len(l.stack)
	l.spans[l.stack[n-1]].end = time.Now()
	l.stack = l.stack[:n-1]
}

// add records a completed span under the innermost open span, with an
// optional numeric attribute (a candidate count, a hit count).
func (l *lane) add(name string, start, end time.Time, attr float64) {
	if !l.on {
		return
	}
	parent, root := -1, len(l.spans)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
		root = l.spans[parent].root
	}
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, root: root, attr: attr})
}

// addChild records a completed span under the span at index parent, for a
// child estimated after its parent closed. The estimate is clipped to the
// parent's interval.
func (l *lane) addChild(parent int, name string, start, end time.Time, attr float64) {
	if !l.on {
		return
	}
	p := l.spans[parent]
	if start.Before(p.start) {
		start = p.start
	}
	if end.After(p.end) {
		end = p.end
	}
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, root: p.root, attr: attr})
}

// timed runs fn inside a span.
func (l *lane) timed(name string, fn func()) {
	l.begin(name)
	fn()
	l.end()
}

// programSpanNames maps the span names the program itself opens (through
// internal/obs; a child stage is named <parent>/<stage>) to the benchmark's
// layer-qualified names. Spans the program opens that are not listed here
// are folded into their parent.
var programSpanNames = map[string]string{
	"delta.apply":                "delta.apply",
	"delta.rebuild":              "delta.rebuild",
	"delta.reseed":               "delta.reseed",
	"conflict.analyze":           "conflict.analyze",
	"conflict.analyze/triples":   "conflict.triples",
	"mis.solve":                  "mis.solve",
	"ctcr.assemble":              "ctcr.assemble",
	"read.categorize":            "serve.categorize",
	"read.categorize/best_cover": "tree.best_cover",
}

// harvest copies the spans a program call recorded into rec (a recorder
// whose time origin is origin) onto the lane, nested under the innermost
// open span. Events arrive sorted by start, parents before children, so
// nesting is rebuilt with a stack of open intervals.
func (l *lane) harvest(rec *trace.Recorder, origin time.Time) {
	if !l.on || rec == nil {
		return
	}
	base := len(l.stack)
	for _, ev := range rec.Events() {
		name, ok := programSpanNames[ev.Name]
		if !ok {
			continue
		}
		start := origin.Add(time.Duration(ev.TS * float64(time.Microsecond)))
		end := start.Add(time.Duration(ev.Dur * float64(time.Microsecond)))
		for len(l.stack) > base && !l.spans[l.stack[len(l.stack)-1]].end.After(start) {
			l.stack = l.stack[:len(l.stack)-1]
		}
		attr := 0.0
		if c, ok := ev.Args["candidates"].(int); ok {
			attr = float64(c)
		}
		l.add(name, start, end, attr)
		l.stack = append(l.stack, len(l.spans)-1)
	}
	l.stack = l.stack[:base]
}

// layerOf returns the layer a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the union of
// its direct children's intervals (children of one span may be recorded out
// of order by harvest, and estimated children may overlap, so the union is
// taken rather than the sum).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.end.Sub(s.start) - covered(spans, kids[i], s.start, s.end)
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// covered is the length of the union of the given spans' intervals, clipped
// to [lo, hi].
func covered(spans []span, idx []int, lo, hi time.Time) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].start, spans[i].end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for k, v := range iv {
		if k == 0 || v[0].After(curB) {
			total += curB.Sub(curA)
			curA, curB = v[0], v[1]
			continue
		}
		if v[1].After(curB) {
			curB = v[1]
		}
	}
	return total + curB.Sub(curA)
}
