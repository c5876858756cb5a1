package runtime

import (
	"sync/atomic"
	"time"
)

// Clock abstracts time for the scheduler so that tests and the live
// scenario backend can run clusters in virtual time: a driven cluster
// executes the same concurrent code paths as a wall-clock one, but time
// only moves when the driver advances it — no sleeps, no flaky
// deadlines, and a 10k-node "live" run is compute-bound instead of
// period-bound.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After behaves like time.After on this clock. It is only consulted
	// in free-running mode; a driven scheduler never blocks on it.
	After(d time.Duration) <-chan time.Time
}

// realClock is the wall clock.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// virtualEpoch is the arbitrary origin of virtual time. Its value never
// matters — only durations do — but a non-zero origin keeps time.Time
// arithmetic away from the zero value's special cases.
var virtualEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// VirtualClock is a manually advanced clock. Handing one to a cluster
// puts its scheduler in driven mode: node ticks and message deliveries
// execute only inside Cluster.Advance, which moves this clock forward
// and drains every event that falls due, concurrently across the worker
// shards, before returning. The clock itself is passive — the scheduler
// advances it; callers read it.
type VirtualClock struct {
	nanos atomic.Int64 // offset from virtualEpoch
}

// NewVirtualClock returns a virtual clock at its epoch.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	return virtualEpoch.Add(time.Duration(c.nanos.Load()))
}

// After implements Clock. A driven scheduler never waits on the clock,
// so the returned channel never fires; selecting on it simply blocks
// until another wake-up (a new event or a stop) arrives.
func (c *VirtualClock) After(time.Duration) <-chan time.Time { return nil }

// advanceTo moves the clock forward to d nanoseconds past virtualEpoch
// (never backward).
func (c *VirtualClock) advanceTo(d int64) {
	for {
		cur := c.nanos.Load()
		if d <= cur || c.nanos.CompareAndSwap(cur, d) {
			return
		}
	}
}
