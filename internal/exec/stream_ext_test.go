package exec_test

// Differential tests for the event-sink pipeline: a streaming consumer
// attached with AddSink must observe, cell for cell across the executor
// matrix, byte-for-byte the stream the retained trace would hold — with
// retention off, so the run never materializes the history it is being
// compared against. The comparison is by trace.Hash, whose line format is
// the goldens' renderFull format.

import (
	"fmt"
	"testing"

	"psclock/internal/core"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	"psclock/internal/trace"
	"psclock/internal/workload"
)

// TestStreamingHashMatrix: every executor×model cell that guarantees
// byte-identical full traces (timed and clock on both paths, MMT dense)
// must hash identically through a streaming sink with KeepTrace off. The
// sharded cells additionally prove the per-lane buffers and round-barrier
// merge feed sinks in canonical order.
func TestStreamingHashMatrix(t *testing.T) {
	for _, model := range []string{"timed", "clock", "mmt"} {
		for _, shards := range []int{-1, 3} {
			model, shards := model, shards
			t.Run(fmt.Sprintf("%s/shards%d", model, shards), func(t *testing.T) {
				t.Parallel()
				runOne := func(streaming bool) (uint64, int) {
					cfg, p := extConfig(2, 200*extUS, core.LazySteps)
					cfg.Shards = shards
					net := buildShardedNet(t, model, cfg, p)
					if model == "mmt" {
						net.Sys.DisableCoalescing()
					}
					var h *trace.Hash
					if streaming {
						net.Sys.KeepTrace = false
						h = trace.NewHash()
						net.Sys.AddSink(h)
					}
					clients := workload.AttachScripted(net, extScripts(cfg.N, 6))
					if err := net.Sys.Run(simtime.Time(90 * extMS)); err != nil {
						t.Fatalf("streaming=%v: %v", streaming, err)
					}
					checkShardState(t, net, shards > 1)
					for _, c := range clients {
						if c.Err != nil {
							t.Fatalf("streaming=%v: %v", streaming, c.Err)
						}
						if c.Done != 6 {
							t.Fatalf("streaming=%v: %s finished %d/6", streaming, c.Name(), c.Done)
						}
					}
					if streaming {
						if len(net.Sys.Trace()) != 0 {
							t.Fatalf("streaming run retained %d events despite KeepTrace=false", len(net.Sys.Trace()))
						}
						return h.Sum64(), h.N
					}
					return trace.HashTrace(net.Sys.Trace()), len(net.Sys.Trace())
				}
				gotHash, gotN := runOne(true)
				wantHash, wantN := runOne(false)
				if gotN != wantN {
					t.Errorf("streaming sink observed %d events, retained trace holds %d", gotN, wantN)
				}
				if gotHash != wantHash {
					t.Errorf("streaming hash %#x != retained hash %#x (sink stream diverges from trace)", gotHash, wantHash)
				}
			})
		}
	}
}

// TestKeepTraceToggleMidRun pins the toggle semantics: sequence numbers
// count every recorded event whether or not anything observes it, so
// switching retention off for a window and back on resumes numbering
// exactly where an always-on run would be — the retained events of the
// toggled run are a byte-identical subsequence of the full run — and an
// attached sink keeps observing the complete stream through the window
// where retention was off.
func TestKeepTraceToggleMidRun(t *testing.T) {
	t.Parallel()
	full := func() (map[int]string, uint64) {
		cfg, p := extConfig(5, 200*extUS, core.LazySteps)
		net := core.BuildClocked(cfg, register.Factory(register.NewS, p))
		workload.AttachScripted(net, extScripts(cfg.N, 6))
		if err := net.Sys.Run(simtime.Time(90 * extMS)); err != nil {
			t.Fatal(err)
		}
		bySeq := make(map[int]string, len(net.Sys.Trace()))
		for _, e := range net.Sys.Trace() {
			bySeq[e.Seq] = fmt.Sprintf("%s|%d|%d|%s", e.Action.Label(), e.Action.Kind, e.At, e.Src)
		}
		return bySeq, trace.HashTrace(net.Sys.Trace())
	}
	fullBySeq, fullHash := full()

	cfg, p := extConfig(5, 200*extUS, core.LazySteps)
	net := core.BuildClocked(cfg, register.Factory(register.NewS, p))
	h := trace.NewHash()
	net.Sys.AddSink(h)
	workload.AttachScripted(net, extScripts(cfg.N, 6))
	if err := net.Sys.Run(simtime.Time(20 * extMS)); err != nil {
		t.Fatal(err)
	}
	net.Sys.KeepTrace = false
	if err := net.Sys.Run(simtime.Time(30 * extMS)); err != nil {
		t.Fatal(err)
	}
	net.Sys.KeepTrace = true
	if err := net.Sys.Run(simtime.Time(90 * extMS)); err != nil {
		t.Fatal(err)
	}
	toggled := net.Sys.Trace()
	if len(toggled) >= len(fullBySeq) {
		t.Fatalf("toggle window dropped nothing: %d events retained of %d", len(toggled), len(fullBySeq))
	}
	resumed := false
	for i, e := range toggled {
		want, ok := fullBySeq[e.Seq]
		if !ok {
			t.Fatalf("event %d: Seq %d does not exist in the always-on run", i, e.Seq)
		}
		got := fmt.Sprintf("%s|%d|%d|%s", e.Action.Label(), e.Action.Kind, e.At, e.Src)
		if got != want {
			t.Fatalf("event %d (Seq %d): %q != always-on %q", i, e.Seq, got, want)
		}
		if i > 0 && e.Seq > toggled[i-1].Seq+1 {
			resumed = true // the gap left by the retention-off window
		}
	}
	if !resumed {
		t.Error("no sequence gap found; the toggle window recorded nothing hidden")
	}
	if h.N != len(fullBySeq) {
		t.Errorf("sink observed %d events through the toggle, always-on run has %d", h.N, len(fullBySeq))
	}
	if h.Sum64() != fullHash {
		t.Errorf("sink hash %#x != always-on hash %#x (sink missed events while KeepTrace was off)", h.Sum64(), fullHash)
	}
}

// watermarkSink records, in call order, the stamp of every observed event
// and the bound of every flush.
type watermarkSink struct {
	calls           []sinkCall
	events, flushes int
	lastFlush       simtime.Time
}

type sinkCall struct {
	flush bool
	at    simtime.Time
}

func (w *watermarkSink) Observe(e ta.Event) {
	w.calls = append(w.calls, sinkCall{at: e.At})
	w.events++
}

func (w *watermarkSink) Flush(b simtime.Time) {
	w.calls = append(w.calls, sinkCall{flush: true, at: b})
	w.flushes++
	w.lastFlush = b
}

// check enforces the Sink contract's watermark clauses: flush bounds never
// decrease, and no event observed after Flush(b) is stamped before b.
func (w *watermarkSink) check(t *testing.T) {
	t.Helper()
	if w.flushes == 0 {
		t.Fatal("the drivers never flushed")
	}
	low := simtime.Time(0)
	for i, c := range w.calls {
		switch {
		case c.flush && c.at < low:
			t.Fatalf("call %d: Flush(%v) below the earlier bound %v", i, c.at, low)
		case c.flush:
			low = c.at
		case c.at < low:
			t.Fatalf("call %d: event stamped %v observed after Flush(%v)", i, c.at, low)
		}
	}
}

// TestDriverContract pins what the executor's two drivers promise a sink,
// on the sequential and the 3-shard path alike: Run(t1), then
// RunQuiet(limit), then Run(t2). Run leaves Now() at its bound; the sink's
// watermarks never retreat and never pass an event still to come; and the
// quiescence verdicts and the traces match across the two paths. The timed
// model drains to quiescence before its limit, the clock model's clients
// are cut off mid-run, so both of RunQuiet's verdicts are exercised.
func TestDriverContract(t *testing.T) {
	const (
		t1 = simtime.Time(20 * extMS)
		t2 = simtime.Time(200 * extMS)
	)
	for _, tc := range []struct {
		model string
		limit simtime.Time
		quiet bool
	}{{"timed", simtime.Time(150 * extMS), true}, {"clock", simtime.Time(30 * extMS), false}} {
		tc := tc
		t.Run(tc.model, func(t *testing.T) {
			t.Parallel()
			runOne := func(shards int) (string, bool) {
				cfg, p := extConfig(3, 200*extUS, core.LazySteps)
				cfg.Shards = shards
				net := buildShardedNet(t, tc.model, cfg, p)
				w := &watermarkSink{}
				net.Sys.AddSink(w)
				clients := workload.AttachScripted(net, extScripts(cfg.N, 4))
				if err := net.Sys.Run(t1); err != nil {
					t.Fatalf("shards=%d: Run(t1): %v", shards, err)
				}
				if net.Sys.Now() != t1 {
					t.Fatalf("shards=%d: Now() = %v after Run(%v)", shards, net.Sys.Now(), t1)
				}
				quiet, err := net.Sys.RunQuiet(tc.limit)
				if err != nil {
					t.Fatalf("shards=%d: RunQuiet: %v", shards, err)
				}
				if net.Sys.Now() > tc.limit {
					t.Fatalf("shards=%d: Now() = %v past RunQuiet's limit %v", shards, net.Sys.Now(), tc.limit)
				}
				if err := net.Sys.Run(t2); err != nil {
					t.Fatalf("shards=%d: Run(t2): %v", shards, err)
				}
				if net.Sys.Now() != t2 {
					t.Fatalf("shards=%d: Now() = %v after Run(%v)", shards, net.Sys.Now(), t2)
				}
				checkShardState(t, net, shards > 1)
				for _, c := range clients {
					if c.Err != nil || c.Done != 4 {
						t.Fatalf("shards=%d: %s finished %d/4 (err %v)", shards, c.Name(), c.Done, c.Err)
					}
				}
				w.check(t)
				if w.lastFlush != t2 {
					t.Errorf("shards=%d: last flush at %v, want Run's bound %v", shards, w.lastFlush, t2)
				}
				if w.events != len(net.Sys.Trace()) {
					t.Errorf("shards=%d: sink observed %d events, trace holds %d", shards, w.events, len(net.Sys.Trace()))
				}
				return renderFull(net.Sys.Trace()), quiet
			}
			shTrace, shQuiet := runOne(3)
			seqTrace, seqQuiet := runOne(-1)
			if shQuiet != seqQuiet || seqQuiet != tc.quiet {
				t.Errorf("RunQuiet verdicts: sharded %v, sequential %v, want %v", shQuiet, seqQuiet, tc.quiet)
			}
			if shTrace != seqTrace {
				t.Errorf("traces diverge:\nsharded:\n%s\nsequential:\n%s", trim(shTrace), trim(seqTrace))
			}
		})
	}
}
