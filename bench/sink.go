package main

import (
	"sync/atomic"
	"time"

	"psclock/internal/exec"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// The traced run's view of the live runtime's event stream, taken from
// outside: an exec.Sink beside the Monitor that pairs each port's
// invocation with its response (node service time, from the recorder's
// own stamps) and measures how far behind real time the recorder hands
// events over; a sink and a checker decorator that time the Monitor and
// the checker it drives.

// pairer matches each port's Input with the Output that answers it. Ports
// admit one operation at a time (§6.1 alternation), so one slot per port
// is enough; an Output with no open Input (the invocation predates the
// sink) is skipped.
type pairer struct {
	open map[ta.NodeID]pending
}

type pending struct {
	at   simtime.Time
	read bool
}

func newPairer() *pairer { return &pairer{open: make(map[ta.NodeID]pending)} }

// observe feeds one event; when it completes an operation it returns the
// operation's kind and its Output.At − Input.At.
func (p *pairer) observe(e ta.Event) (read bool, service simtime.Duration, done bool) {
	a := e.Action
	if a.Kind == ta.KindInternal {
		return false, 0, false
	}
	switch a.Name {
	case register.ActRead, register.ActWrite:
		p.open[a.Node] = pending{at: e.At, read: a.Name == register.ActRead}
	case register.ActReturn, register.ActAck:
		op, ok := p.open[a.Node]
		if !ok {
			return false, 0, false
		}
		delete(p.open, a.Node)
		return op.read, e.At.Sub(op.at), true
	}
	return false, 0, false
}

// stageSink records node service time per operation kind and recorder lag
// per event: wall time at Observe minus (epoch + the event's stamp). It
// records only while on is set, so the histograms cover the timed window.
type stageSink struct {
	epoch time.Time
	on    *atomic.Bool
	pairs *pairer

	readSvc, writeSvc, lag *hist
}

var _ exec.Sink = (*stageSink)(nil)

func newStageSink(epoch time.Time, t *tracer, on *atomic.Bool) *stageSink {
	return &stageSink{
		epoch:    epoch,
		on:       on,
		pairs:    newPairer(),
		readSvc:  t.hist("live.node.read_service"),
		writeSvc: t.hist("live.node.write_service"),
		lag:      t.hist("live.recorder.lag"),
	}
}

func (s *stageSink) Observe(e ta.Event) {
	read, svc, done := s.pairs.observe(e)
	if !s.on.Load() {
		return
	}
	if stamp, err := simtime.ToWall(simtime.Duration(e.At)); err == nil {
		s.lag.add(time.Since(s.epoch.Add(stamp)).Nanoseconds())
	}
	if done {
		if w, err := simtime.ToWall(svc); err == nil {
			if read {
				s.readSvc.add(w.Nanoseconds())
			} else {
				s.writeSvc.add(w.Nanoseconds())
			}
		}
	}
}

func (s *stageSink) Flush(simtime.Time) {}

// timedSink wraps a sink and adds up the time spent inside it.
type timedSink struct {
	inner  exec.Sink
	busy   time.Duration
	events int
}

func (s *timedSink) Observe(e ta.Event) {
	t0 := time.Now()
	s.inner.Observe(e)
	s.busy += time.Since(t0)
	s.events++
}

func (s *timedSink) Flush(bound simtime.Time) {
	t0 := time.Now()
	s.inner.Flush(bound)
	s.busy += time.Since(t0)
}

// timedChecker decorates a linearize.Checker with the time spent in its
// calls on the calling goroutine. For a sharded checker that is the
// hand-off to the workers, not their work; Finish waits for them.
type timedChecker struct {
	inner  linearize.Checker
	busy   time.Duration
	ops    int
	finish time.Duration
}

var _ linearize.Checker = (*timedChecker)(nil)

func (c *timedChecker) Begin(key string, node ta.NodeID, inv simtime.Time) {
	t0 := time.Now()
	c.inner.Begin(key, node, inv)
	c.busy += time.Since(t0)
}

func (c *timedChecker) Add(key string, op linearize.Op) {
	t0 := time.Now()
	c.inner.Add(key, op)
	c.busy += time.Since(t0)
	c.ops++
}

func (c *timedChecker) Advance(watermark simtime.Time) {
	t0 := time.Now()
	c.inner.Advance(watermark)
	c.busy += time.Since(t0)
}

func (c *timedChecker) Finish() linearize.Result {
	t0 := time.Now()
	res := c.inner.Finish()
	c.finish = time.Since(t0)
	return res
}
