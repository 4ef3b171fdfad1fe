package trace

import (
	"fmt"
	"testing"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

func mkEvents(n int) ta.Trace {
	tr := make(ta.Trace, n)
	for i := range tr {
		tr[i] = ta.Event{
			Action: ta.Action{Name: fmt.Sprintf("a%d", i%5), Node: ta.NodeID(i % 3), Kind: ta.KindOutput},
			At:     simtime.Time(i * 10),
			Seq:    i,
			Src:    "src",
		}
	}
	return tr
}

func TestHashMatchesBatch(t *testing.T) {
	events := mkEvents(9)
	h := NewHash()
	for _, e := range events {
		h.Observe(e)
	}
	if h.N != len(events) {
		t.Errorf("N = %d, want %d", h.N, len(events))
	}
	if h.Sum64() != HashTrace(events) {
		t.Error("incremental hash differs from batch HashTrace")
	}
	if NewHash().Sum64() != NewHash().Sum64() {
		t.Error("empty hashes differ")
	}
	if h.Sum64() == NewHash().Sum64() {
		t.Error("hash ignored its input")
	}
}

func TestRingKeepsTail(t *testing.T) {
	events := mkEvents(10)
	r := NewRing(4)
	for i, e := range events {
		r.Observe(e)
		if r.Total() != i+1 {
			t.Fatalf("Total = %d after %d events", r.Total(), i+1)
		}
	}
	tail := r.Tail()
	if len(tail) != 4 {
		t.Fatalf("tail holds %d events, want 4", len(tail))
	}
	for i, e := range tail {
		if want := events[len(events)-4+i]; e.Seq != want.Seq {
			t.Errorf("tail[%d].Seq = %d, want %d (oldest-first order)", i, e.Seq, want.Seq)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	events := mkEvents(2)
	r := NewRing(5)
	for _, e := range events {
		r.Observe(e)
	}
	tail := r.Tail()
	if len(tail) != 2 || tail[0].Seq != 0 || tail[1].Seq != 1 {
		t.Errorf("partial tail = %v", tail)
	}
	if NewRing(0) == nil || len(NewRing(0).buf) != 1 {
		t.Error("NewRing(0) did not clamp capacity to 1")
	}
}
