//go:build !linux

package main

import "time"

// sleepUntil falls back to the runtime's timers where nanosleep(2) and
// timer slack are not available; expect loadgen.late_frac to show it.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
