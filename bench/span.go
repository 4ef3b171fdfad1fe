package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracing, from the harness's own files only: a span around each call
// into a layer (name, start, end, parent, run identifier), and log-bucket
// histograms for the per-op and per-event boundaries that would otherwise
// be one span each. Everything stays in memory until the run ends and is
// then written as JSON lines. A nil *tracer records nothing, which is how
// the gated run keeps tracing off.

// span is one recorded interval, in ns since the process started.
type span struct {
	ID, Parent int
	Name       string
	Start, End int64
}

// tracer collects one run's spans and histograms.
type tracer struct {
	run  string
	zero time.Time

	mu    sync.Mutex
	spans []span
	hists map[string]*hist
}

func newTracer(run string, zero time.Time) *tracer {
	return &tracer{run: run, zero: zero, hists: make(map[string]*hist)}
}

// start opens a span under parent (0 = none) and returns its ID.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.zero).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// finish closes the span.
func (t *tracer) finish(id int) {
	if t == nil || id <= 0 {
		return
	}
	now := time.Since(t.zero).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// hist returns the named histogram, creating it on first use. Each
// histogram is fed from one goroutine; only the registry is locked.
func (t *tracer) hist(name string) *hist {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil {
		h = &hist{}
		t.hists[name] = h
	}
	return h
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (children of one parent may overlap, so the covered part is
// the union of their intervals, clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// write dumps spans, then histograms, as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		enc.Encode(map[string]any{
			"type": "span", "run": t.run, "id": s.ID, "parent": s.Parent, "name": s.Name,
			"start_ns": s.Start, "end_ns": s.End, "self_ns": self[s.ID],
		})
	}
	names := make([]string, 0, len(t.hists))
	for name := range t.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := t.hists[name]
		enc.Encode(map[string]any{
			"type": "hist", "run": t.run, "name": name, "unit": "ns", "count": h.n,
			"p50": h.quantile(0.5), "p99": h.quantile(0.99), "buckets": h.buckets(),
		})
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hist is a log-bucket histogram of non-negative ns values: 16 buckets
// per octave (4.4 % wide), so a quantile is exact to about ±2 %.
type hist struct {
	n      int
	counts [histBuckets]int
}

const (
	histPerOctave = 16
	histBuckets   = 64 * histPerOctave
)

func histIndex(ns int64) int {
	if ns < 1 {
		return 0
	}
	i := int(math.Log2(float64(ns)) * histPerOctave)
	return min(i, histBuckets-1)
}

// histLow is the lower edge of bucket i.
func histLow(i int) float64 { return math.Exp2(float64(i) / histPerOctave) }

func (h *hist) add(ns int64) {
	if h == nil {
		return
	}
	h.n++
	h.counts[histIndex(ns)]++
}

// quantile returns the geometric midpoint of the bucket holding the
// q-quantile, 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := int(q*float64(h.n-1)) + 1
	seen := 0
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return math.Sqrt(histLow(i) * histLow(i+1))
		}
	}
	return histLow(histBuckets)
}

// buckets lists the non-empty buckets as [lower edge ns, count].
func (h *hist) buckets() [][2]float64 {
	var out [][2]float64
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, [2]float64{histLow(i), float64(c)})
		}
	}
	return out
}
