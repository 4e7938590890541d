//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// spinWindow is how early sleepUntil stops sleeping and starts polling
// the clock: above the nanosleep overshoot a 1 µs timer slack leaves.
const spinWindow = 20 * time.Microsecond

// sleepUntil returns at t, a few microseconds late at most. The Go timer
// rounds short sleeps up to about a millisecond on Linux — more than the
// round trips an open loop times — so it sleeps with nanosleep on its own
// thread at 1 µs timer slack, then polls the clock for the last stretch.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		runtime.LockOSThread()
		const prSetTimerSlack = 29
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the poll below finishes it
		runtime.UnlockOSThread()
	}
	for time.Now().Before(t) {
	}
}
