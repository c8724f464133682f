package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans in memory — name, start, end, parent and op id —
// and writes them out when the run ends. A nil *tracer records nothing,
// so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	roots map[int]int // op id → index of its "op" span
}

// span is one recorded interval. Parent indexes the tracer's spans, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now(), roots: make(map[int]int)} }

// sampled reports whether the load phase traces an op: every other one,
// so the untraced half of the same phase measures the tracing overhead.
func (t *tracer) sampled(op int) bool { return op >= 0 && op%2 == 1 }

// begin opens a span and returns its index.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// span opens a span of a load-phase op and returns its closer, for
// `defer t.span(op, name)()`. The "op" span is the op's root; the
// others hang under it. Ops the tracer does not sample record nothing.
func (t *tracer) span(op int, name string) func() {
	if t == nil || name == "" || !t.sampled(op) {
		return func() {}
	}
	parent := -1
	if name != "op" {
		t.mu.Lock()
		if r, ok := t.roots[op]; ok {
			parent = r
		}
		t.mu.Unlock()
	}
	i := t.begin(op, parent, name)
	if name == "op" {
		t.mu.Lock()
		t.roots[op] = i
		t.mu.Unlock()
	}
	return func() { t.end(i) }
}

// durations returns the sorted durations (ns) of the closed spans named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d = append(d, float64(s.End-s.Start))
		}
	}
	sort.Float64s(d)
	return d
}

// median is the median duration (ns) of the spans named name.
func (t *tracer) median(name string) (float64, bool) {
	d := t.durations(name)
	return percentile(d, 0.5), len(d) > 0
}

// medianMS is median in milliseconds, 0 when no such span was recorded.
func (t *tracer) medianMS(name string) float64 {
	v, _ := t.median(name)
	return v / 1e6
}

// selfLayers are the layers self time is reported for. A span's layer is
// its name up to the first dot; the load phase's "op" root is the
// client's own time, the in-process replay's "inproc" root the
// benchmark's bookkeeping between calls, and "http" the server as the
// client sees it through one request. The "primitives" pass times fixed
// inputs, not ops, and is left out.
var selfLayers = []string{"client", "http", "bench", "wideleak", "ott", "cdn", "manifest", "media"}

func layerOf(name string) string {
	switch name {
	case "op":
		return "client"
	case "inproc":
		return "bench"
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time — its spans' durations minus
// the part their children cover — in milliseconds per op: summed, then
// divided by the number of roots of the kind the spans hang under ("op"
// for the load phase, "inproc" for the in-process replay). A layer with
// no spans reads 0.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rootOf := func(i int) string {
		for t.spans[i].Parent >= 0 {
			i = t.spans[i].Parent
		}
		return t.spans[i].Name
	}
	roots := make(map[string]float64)
	self := make(map[string]map[string]float64) // root kind → layer → ms
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if s.Parent < 0 {
			roots[s.Name]++
		}
		// Children may overlap (a batch builds worlds in parallel), so
		// cover their union, clipped to the span.
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := int64(0), [2]int64{s.Start, s.Start}
		for _, c := range iv {
			c[0], c[1] = max(c[0], s.Start), min(c[1], s.End)
			switch {
			case c[1] <= c[0]:
			case c[0] > cur[1]:
				covered += cur[1] - cur[0]
				cur = c
			case c[1] > cur[1]:
				cur[1] = c[1]
			}
		}
		covered += cur[1] - cur[0]
		kind := rootOf(i)
		if kind == "primitives" {
			continue
		}
		if self[kind] == nil {
			self[kind] = make(map[string]float64)
		}
		self[kind][layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e6
	}
	out := make(map[string]float64, len(selfLayers))
	for _, layer := range selfLayers {
		out[layer] = 0
	}
	for kind, layers := range self {
		for layer, ms := range layers {
			out[layer] += ms / roots[kind]
		}
	}
	return out
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
