// Package stats provides the small summary-statistics and table-rendering
// helpers the benchmark harness uses to print the experiment tables and
// figure series of EXPERIMENTS.md.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"psclock/internal/simtime"
)

// Summary describes a sample of durations.
type Summary struct {
	N              int
	Min, Max, Mean simtime.Duration
	P50, P95, P99  simtime.Duration
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func Summarize(ds []simtime.Duration) Summary {
	if len(ds) == 0 {
		return Summary{}
	}
	sorted := make([]simtime.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, d := range sorted {
		sum += int64(d)
	}
	pct := func(p float64) simtime.Duration {
		idx := int(p*float64(len(sorted)-1) + 0.5)
		return sorted[idx]
	}
	return Summary{
		N:    len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Mean: simtime.Duration(sum / int64(len(sorted))),
		P50:  pct(0.50),
		P95:  pct(0.95),
		P99:  pct(0.99),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v mean=%v p99=%v max=%v", s.N, s.Min, s.Mean, s.P99, s.Max)
}

// Stream is an O(1)-memory incremental aggregator of durations — the
// streaming counterpart of Summarize for pipelines that cannot retain the
// sample. It tracks count, extrema, and mean exactly; order statistics
// need the sample and are deliberately absent.
type Stream struct {
	N        int
	Min, Max simtime.Duration
	sum      int64
}

// Add folds one duration into the aggregate.
func (s *Stream) Add(d simtime.Duration) {
	if s.N == 0 || d < s.Min {
		s.Min = d
	}
	if s.N == 0 || d > s.Max {
		s.Max = d
	}
	s.N++
	s.sum += int64(d)
}

// Mean returns the running mean, or 0 for an empty aggregate.
func (s *Stream) Mean() simtime.Duration {
	if s.N == 0 {
		return 0
	}
	return simtime.Duration(s.sum / int64(s.N))
}

// Summary converts the aggregate to a Summary; percentile fields are left
// zero (unavailable without the retained sample).
func (s *Stream) Summary() Summary {
	if s.N == 0 {
		return Summary{}
	}
	return Summary{N: s.N, Min: s.Min, Max: s.Max, Mean: s.Mean()}
}

// Table renders aligned fixed-width text tables.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; missing cells render empty, extra cells are kept.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	ncols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	cell := func(r []string, i int) string {
		if i < len(r) {
			return r[i]
		}
		return ""
	}
	all := append([][]string{t.headers}, t.rows...)
	for _, r := range all {
		for i := 0; i < ncols; i++ {
			if w := len([]rune(cell(r, i))); w > widths[i] {
				widths[i] = w
			}
		}
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < ncols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			c := cell(r, i)
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, ncols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
