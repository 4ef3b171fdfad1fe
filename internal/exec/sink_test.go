package exec

import (
	"reflect"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

type mergeLog struct {
	events  []ta.Event
	flushes []simtime.Time
}

func (l *mergeLog) Observe(e ta.Event)   { l.events = append(l.events, e) }
func (l *mergeLog) Flush(b simtime.Time) { l.flushes = append(l.flushes, b) }

// StampMerge is where streams from outside a System meet the Sink
// contract: order by (stamp, kind rank, stream, FIFO), contiguous Seq, a
// clamp for a stream that broke its bound, a watermark that never
// retreats, and a final flush that always happens.
func TestStampMergeContract(t *testing.T) {
	log := &mergeLog{}
	m := StampMerge{Sinks: []Sink{log}}
	act := func(name string, k ta.Kind) ta.Action { return ta.Action{Name: name, Kind: k} }

	m.Add(1, act("out@10", ta.KindOutput), 10, "s1")
	m.Add(1, act("late@30", ta.KindInternal), 30, "s1")
	m.Add(0, act("x@10", ta.KindInternal), 10, "s0")
	m.Add(0, act("y@10", ta.KindInternal), 10, "s0")
	m.Add(2, act("in@10", ta.KindInput), 10, "s2")
	if n := m.Emit(); n != 5 {
		t.Fatalf("Emit = %d, want 5", n)
	}
	m.Flush(30)
	m.Flush(20) // would retreat: ignored
	m.Add(0, act("below@25", ta.KindInput), 25, "s0")
	m.Emit()

	var names []string
	for i, e := range log.events {
		names = append(names, e.Action.Name)
		if e.Seq != i {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
	}
	want := []string{"in@10", "x@10", "y@10", "out@10", "late@30", "below@25"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("order %v, want %v", names, want)
	}
	if last := log.events[5]; last.At != 30 || m.Clamped() != 1 || m.Emitted() != 6 {
		t.Fatalf("below-frontier event at %v, clamped %d, emitted %d; want 30, 1, 6", last.At, m.Clamped(), m.Emitted())
	}
	// Nothing new to say, but a buffering sink ships on Flush: Finish
	// always forwards one.
	m.Finish()
	if want := []simtime.Time{30, 30}; !reflect.DeepEqual(log.flushes, want) {
		t.Fatalf("flushes %v, want %v", log.flushes, want)
	}
}
