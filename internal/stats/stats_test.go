package stats

import (
	"strings"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.String() != "n=0" {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]simtime.Duration{5})
	if s.N != 1 || s.Min != 5 || s.Max != 5 || s.Mean != 5 || s.P50 != 5 || s.P99 != 5 {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	ds := make([]simtime.Duration, 0, 100)
	for i := 100; i >= 1; i-- { // reversed input: must not matter
		ds = append(ds, simtime.Duration(i))
	}
	s := Summarize(ds)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 50 { // (5050/100) truncated
		t.Errorf("mean = %v", s.Mean)
	}
	if s.P50 != 51 || s.P99 != 99 {
		t.Errorf("p50=%v p99=%v", s.P50, s.P99)
	}
	// Input not mutated.
	if ds[0] != 100 {
		t.Error("input mutated")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]simtime.Duration{simtime.Millisecond, 2 * simtime.Millisecond})
	str := s.String()
	if !strings.Contains(str, "n=2") || !strings.Contains(str, "min=1ms") {
		t.Errorf("String = %q", str)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("x", "1")
	tb.AddRow("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("separator = %q", lines[1])
	}
	// Columns aligned: "value" column starts at the same offset everywhere.
	idx := strings.Index(lines[0], "value")
	if lines[2][idx:idx+1] != "1" && lines[3][idx:idx+2] != "22" {
		t.Errorf("misaligned:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a")
	tb.AddRow("1", "extra")
	tb.AddRow()
	out := tb.String()
	if !strings.Contains(out, "extra") {
		t.Errorf("extra cell dropped:\n%s", out)
	}
}

func mkTimelineTrace() ta.Trace {
	return ta.Trace{
		{Action: ta.Action{Name: "READ", Node: 0, Peer: ta.NoNode, Kind: ta.KindInput}, At: 0},
		{Action: ta.Action{Name: "RETURN", Node: 0, Peer: ta.NoNode, Kind: ta.KindOutput}, At: 50},
		{Action: ta.Action{Name: "WRITE", Node: 1, Peer: ta.NoNode, Kind: ta.KindInput}, At: 25},
		{Action: ta.Action{Name: "ACK", Node: 1, Peer: ta.NoNode, Kind: ta.KindOutput}, At: 100},
		{Action: ta.Action{Name: "HIDDEN", Node: 1, Peer: ta.NoNode, Kind: ta.KindInternal}, At: 60},
	}
}

func TestTimelineBasics(t *testing.T) {
	out := Timeline(mkTimelineTrace(), 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + 2 lanes + legend
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "n0") || !strings.HasPrefix(lines[2], "n1") {
		t.Errorf("lanes:\n%s", out)
	}
	if !strings.Contains(lines[1], "R") {
		t.Errorf("n0 lane missing markers: %q", lines[1])
	}
	if !strings.Contains(lines[2], "W") || !strings.Contains(lines[2], "A") {
		t.Errorf("n1 lane missing markers: %q", lines[2])
	}
	if strings.Contains(out, "H") && strings.Contains(lines[2], "H") {
		t.Error("internal action rendered")
	}
	if !strings.Contains(lines[3], "legend:") || !strings.Contains(lines[3], "R=READ/RETURN") {
		t.Errorf("legend = %q", lines[3])
	}
}

func TestTimelineEmpty(t *testing.T) {
	if out := Timeline(nil, 40); !strings.Contains(out, "empty") {
		t.Errorf("out = %q", out)
	}
}

func TestTimelineCollision(t *testing.T) {
	tr := ta.Trace{
		{Action: ta.Action{Name: "READ", Node: 0, Peer: ta.NoNode, Kind: ta.KindInput}, At: 10},
		{Action: ta.Action{Name: "WRITE", Node: 0, Peer: ta.NoNode, Kind: ta.KindInput}, At: 10},
		{Action: ta.Action{Name: "ACK", Node: 0, Peer: ta.NoNode, Kind: ta.KindOutput}, At: 1000},
	}
	out := Timeline(tr, 30)
	if !strings.Contains(out, "*") {
		t.Errorf("collision not marked:\n%s", out)
	}
}

func TestTimelineNarrowWidthClamped(t *testing.T) {
	out := Timeline(mkTimelineTrace(), 1)
	if len(out) == 0 {
		t.Error("empty output")
	}
}

func TestChartBasics(t *testing.T) {
	out := Chart("latency vs c", "c (µs)", "latency (µs)", []Series{
		{Name: "ours", Marker: 'o', Points: []Point{{0, 10}, {100, 20}, {200, 30}}},
		{Name: "base", Marker: 'b', Points: []Point{{0, 25}, {100, 25}, {200, 25}}},
	}, 40, 8)
	if !strings.Contains(out, "latency vs c") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "o=ours") || !strings.Contains(out, "b=base") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "o") || !strings.Contains(out, "b") {
		t.Error("missing markers")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 10 {
		t.Errorf("too few lines:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart("t", "x", "y", nil, 40, 8)
	if !strings.Contains(out, "no data") {
		t.Errorf("out = %q", out)
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	// Single point: ranges are artificially widened, no panic.
	out := Chart("t", "x", "y", []Series{{Name: "s", Marker: '*', Points: []Point{{5, 5}}}}, 20, 5)
	if !strings.Contains(out, "*") {
		t.Errorf("marker missing:\n%s", out)
	}
}

func TestChartCollision(t *testing.T) {
	out := Chart("t", "x", "y", []Series{
		{Name: "a", Marker: 'a', Points: []Point{{1, 1}}},
		{Name: "b", Marker: 'b', Points: []Point{{1, 1}}},
	}, 20, 5)
	if !strings.Contains(out, "#") {
		t.Errorf("collision marker missing:\n%s", out)
	}
}

func TestChartClampedDimensions(t *testing.T) {
	out := Chart("t", "x", "y", []Series{{Name: "s", Marker: '*', Points: []Point{{0, 0}, {1, 1}}}}, 1, 1)
	if len(out) == 0 {
		t.Error("empty output")
	}
}
