package spsc

import (
	"testing"
	"time"
)

// TestRingParkUnpark drives a tiny ring far past its capacity from one
// producer to one polling consumer, so the producer parks and is woken
// many times: every value must arrive exactly once, in order. Run under
// -race -count=10 in CI.
func TestRingParkUnpark(t *testing.T) {
	const total = 20_000
	r := New[int](4)
	if len(r.buf) != 4 {
		t.Fatalf("capacity %d, want 4", len(r.buf))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			r.Push(i)
		}
	}()
	for want := 0; want < total; {
		got, ok := r.Peek()
		if !ok {
			time.Sleep(time.Microsecond) // let the producer refill and park again
			continue
		}
		r.Pop()
		if got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	<-done
	if _, ok := r.Peek(); ok {
		t.Fatalf("ring not empty after %d pops", total)
	}
}

// TestRingFullParksProducer pins the overflow policy: a full ring holds
// its producer rather than dropping or overwriting.
func TestRingFullParksProducer(t *testing.T) {
	r := New[int](3) // rounds up to 4
	pushed := make(chan int, 16)
	go func() {
		for i := 0; i < 6; i++ {
			r.Push(i)
			pushed <- i
		}
		close(pushed)
	}()
	for i := 0; i < 4; i++ {
		<-pushed
	}
	select {
	case i := <-pushed:
		t.Fatalf("push %d completed on a full ring of 4", i)
	case <-time.After(50 * time.Millisecond):
	}
	for want := 0; want < 6; {
		got, ok := r.Peek()
		if !ok {
			time.Sleep(time.Microsecond) // the unparked producer has not pushed yet
			continue
		}
		r.Pop()
		if got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	for range pushed {
	}
}
