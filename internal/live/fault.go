package live

import (
	"sync"
	"sync/atomic"
	"time"
)

// FaultTransport wraps another Transport with chaos-controller hooks: it
// can cut the links between this node and a chosen peer (a network
// partition, enacted as symmetric frame drop at this end) and add a fixed
// outbound delay on top of whatever the wrapped transport delivers (a
// delay spike past d2). Both faults are plane-commanded at each affected
// daemon, so a partition between i and j is enforced at both ends even
// though each FaultTransport only sees its own node's traffic.
//
// Drops are counted: a partition is expected to be *flagged* — dropped
// register updates are message loss, which is outside the paper's model
// (Definition 2.3 delivers every message within [d1, d2]) — so the
// evidence that frames were actually cut is part of the fault's outcome.
type FaultTransport struct {
	inner Transport
	self  int

	mu       sync.Mutex
	dropTo   map[int]bool
	dropFrom map[int]bool
	delay    time.Duration

	dropped atomic.Int64

	deliver func(Frame)
	done    chan struct{}
	wg      sync.WaitGroup
}

var _ Transport = (*FaultTransport)(nil)

// NewFaultTransport wraps inner for node self.
func NewFaultTransport(self int, inner Transport) *FaultTransport {
	return &FaultTransport{
		inner:    inner,
		self:     self,
		dropTo:   make(map[int]bool),
		dropFrom: make(map[int]bool),
		done:     make(chan struct{}),
	}
}

// SetPartition cuts (on=true) or heals (on=false) both directions of the
// link between this node and peer.
func (t *FaultTransport) SetPartition(peer int, on bool) {
	t.mu.Lock()
	if on {
		t.dropTo[peer] = true
		t.dropFrom[peer] = true
	} else {
		delete(t.dropTo, peer)
		delete(t.dropFrom, peer)
	}
	t.mu.Unlock()
}

// SetDelay adds d of extra latency to every outbound inter-node frame
// (zero heals). The runtime's per-frame delay measurement sees the sum of
// this and the real network, so a spike past d2 lands in DelayViolations.
func (t *FaultTransport) SetDelay(d time.Duration) {
	t.mu.Lock()
	t.delay = d
	t.mu.Unlock()
}

// Start implements Transport, interposing the inbound drop filter.
func (t *FaultTransport) Start(deliver func(Frame)) error {
	t.deliver = deliver
	return t.inner.Start(func(f Frame) {
		t.mu.Lock()
		drop := t.dropFrom[int(f.From)]
		t.mu.Unlock()
		if drop {
			t.dropped.Add(1)
			return
		}
		deliver(f)
	})
}

// Send implements Transport, applying the outbound drop filter and delay.
func (t *FaultTransport) Send(f Frame) error {
	t.mu.Lock()
	drop := t.dropTo[int(f.To)]
	delay := t.delay
	t.mu.Unlock()
	if drop && int(f.To) != t.self {
		t.dropped.Add(1)
		return nil
	}
	if delay > 0 && int(f.To) != t.self {
		t.wg.Add(1)
		time.AfterFunc(delay, func() {
			defer t.wg.Done()
			select {
			case <-t.done:
				return
			default:
			}
			// Re-check the partition at fire time: a cut raced the timer.
			t.mu.Lock()
			drop := t.dropTo[int(f.To)]
			t.mu.Unlock()
			if drop {
				t.dropped.Add(1)
				return
			}
			_ = t.inner.Send(f)
		})
		return nil
	}
	return t.inner.Send(f)
}

// Close implements Transport.
func (t *FaultTransport) Close() error {
	close(t.done)
	err := t.inner.Close()
	t.wg.Wait()
	return err
}

// Reconnects implements Transport with the wrapped transport's count.
func (t *FaultTransport) Reconnects() int64 { return t.inner.Reconnects() }

// Drops implements Transport: the frames cut by partitions at this end plus
// those the wrapped transport refused at a full queue.
func (t *FaultTransport) Drops() int64 { return t.dropped.Load() + t.inner.Drops() }
