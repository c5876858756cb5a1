//go:build linux

package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// runtime's own timers cannot pace an open loop: an idle P waits in
// epoll, whose timeout has millisecond granularity, so a time.Sleep of
// 125 µs returns up to a millisecond late. The thread's timer slack is
// dropped from the default 50 µs to the minimum first — on every call,
// because the goroutine may have moved to another thread since the last
// one; if the kernel refuses, only precision is lost.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR (the runtime's preemption signal) just loops.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
