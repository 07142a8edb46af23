package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one op share Op; Parent is the
// index of the enclosing span in the same tracer (-1 for an op's root).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Reported marks an interval the program itself measured and
	// returned (core.DeltaResult ParseNs/HookNs) rather than one timed
	// around a call; its placement inside the parent is nominal.
	Reported bool `json:"reported,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps one goroutine's spans in memory. A nil tracer records
// nothing, so untraced runs pay one branch per call site.
type tracer struct {
	base  time.Time
	op    int
	spans []span
	stack []int
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// beginOp starts a new op and opens its root span.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.op++
	return t.begin(name)
}

// begin opens a span under the innermost open one and returns its id
// (-1 when tracing is off).
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// reported adds a program-reported child interval of ns nanoseconds to
// the closed span parent, placed at the parent's start or end.
func (t *tracer) reported(parent int, name string, ns int64, atStart bool) {
	if parent < 0 {
		return
	}
	p := t.spans[parent]
	start := p.End - ns
	if atStart {
		start = p.Start
	}
	t.spans = append(t.spans, span{Op: p.Op, ID: len(t.spans), Parent: parent, Name: name,
		Start: start, End: start + ns, Reported: true})
}

// traceSet is every tracer of a run; op ids are made unique across
// tracers when the set is flattened.
type traceSet struct {
	tracers []*tracer
}

func (ts *traceSet) add(t *tracer) *tracer {
	ts.tracers = append(ts.tracers, t)
	return t
}

// flat returns all spans with run-unique ids and op numbers.
func (ts *traceSet) flat() []span {
	var out []span
	opBase := 0
	for _, t := range ts.tracers {
		idBase := len(out)
		for _, s := range t.spans {
			s.ID += idBase
			if s.Parent >= 0 {
				s.Parent += idBase
			}
			s.Op += opBase
			out = append(out, s)
		}
		opBase += t.op
	}
	return out
}

// layerOf is the layer a span name belongs to: the prefix before the
// first dot, with the benchmark's own op roots counted as "client".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "client"
}

// spanLayers are the layers a self time is reported for.
var spanLayers = []string{"client", "service", "core", "ccparse", "artifact", "rules", "metrics", "store"}

// spanReport summarises a run's spans.
type spanReport struct {
	meanMs map[string]float64 // mean duration per span name
	count  map[string]int     // spans per name
	selfMs map[string]float64 // mean self time per op that entered the layer
	// violations counts children that start before or end after their
	// parent, and parents whose children sum to more than their length.
	violations int
}

func analyzeSpans(spans []span) spanReport {
	r := spanReport{meanMs: map[string]float64{}, count: map[string]int{}, selfMs: map[string]float64{}}
	childSum := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			r.violations++
		}
		childSum[s.Parent] += s.dur()
	}
	total := map[string]int64{}
	self := map[string]int64{}
	layerOps := map[string]map[int]bool{}
	for i, s := range spans {
		if childSum[i] > s.dur() {
			r.violations++
		}
		total[s.Name] += s.dur()
		r.count[s.Name]++
		l := layerOf(s.Name)
		self[l] += s.dur() - childSum[i]
		if layerOps[l] == nil {
			layerOps[l] = map[int]bool{}
		}
		layerOps[l][s.Op] = true
	}
	for name, ns := range total {
		r.meanMs[name] = float64(ns) / 1e6 / float64(r.count[name])
	}
	for l, ns := range self {
		r.selfMs[l] = float64(ns) / 1e6 / float64(len(layerOps[l]))
	}
	return r
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTable renders the self times for the diagnostics output.
func (r spanReport) selfTable() string {
	var parts []string
	layers := append([]string(nil), spanLayers...)
	sort.Strings(layers)
	for _, l := range layers {
		if v, ok := r.selfMs[l]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.3fms", l, v))
		}
	}
	return strings.Join(parts, " ")
}
