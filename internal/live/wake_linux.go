//go:build linux

package live

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// wakeSource ends a node loop's sleep at a deadline: one timerfd read
// through the poller the Go runtime already blocks in, so an expiry is an fd
// event delivered when the kernel's high-resolution timer fires, where a
// time.Timer in an idle process is an epoll_wait timeout rounded up to whole
// milliseconds. A wake is only a reason to come round: C holds at most one
// token, it may be stale or early, and what is due the caller's clock decides.
type wakeSource struct {
	C    chan struct{}
	fd   uintptr       // for timerfd_settime; f.Fd() would make the descriptor blocking
	f    *os.File      // the same descriptor, owned by the poller
	done chan struct{} // closed when read returns
}

func newWakeSource() (*wakeSource, error) {
	const clockMonotonic = 1 // the clock time.Since reads
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("live: timerfd_create: %w", errno)
	}
	w := &wakeSource{C: make(chan struct{}, 1), fd: fd, f: os.NewFile(fd, "timerfd"), done: make(chan struct{})}
	// A descriptor the poller refused still yields a File, whose Read fails
	// at once (EAGAIN): no wakes, silently. Only a polled File takes a deadline.
	if err := w.f.SetReadDeadline(time.Time{}); err != nil {
		w.f.Close()
		return nil, fmt.Errorf("live: timerfd not pollable: %w", err)
	}
	go w.read()
	return w, nil
}

// read turns each expiry (an 8-byte count) into a token, until close fails Read.
func (w *wakeSource) read() {
	defer close(w.done)
	var count [8]byte
	for {
		if _, err := w.f.Read(count[:]); err != nil {
			return
		}
		select {
		case w.C <- struct{}{}:
		default:
		}
	}
}

// arm replaces whatever was armed with one wake d > 0 from now.
func (w *wakeSource) arm(d time.Duration) {
	// struct itimerspec with no interval: one-shot. On a descriptor this
	// source owns the call has no failure mode.
	its := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
}

// close releases the descriptor and returns once the reader has exited.
func (w *wakeSource) close() {
	w.f.Close()
	<-w.done
}
