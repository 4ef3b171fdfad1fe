//go:build !linux

package live

import "time"

// wakeSource ends a node loop's sleep at a deadline (contract: wake_linux.go).
// Without a timerfd it is a time.Timer at the Go runtime's own resolution.
// Stop may leave a tick in C; a stale token only makes the loop come round.
type wakeSource struct{ *time.Timer }

func newWakeSource() (*wakeSource, error) {
	tm := time.NewTimer(time.Hour)
	tm.Stop()
	return &wakeSource{tm}, nil
}

// arm replaces whatever was armed with one wake d > 0 from now.
func (w *wakeSource) arm(d time.Duration) {
	w.Stop()
	w.Reset(d)
}

func (w *wakeSource) close() { w.Stop() }
