package ranking

import (
	"errors"
	"fmt"
)

// ErrWindow is returned when a sliding window with non-positive size is
// requested.
var ErrWindow = errors.New("ranking: window size must be positive")

// Estimator accumulates "is the observed attribute lower than mine"
// observations and produces a normalized rank estimate ℓ/g (Fig. 5
// lines 15, 20).
type Estimator interface {
	// Observe records one attribute observation: lower is true when the
	// observed node precedes the local node in the attribute-based total
	// order.
	Observe(lower bool)
	// Estimate returns the current normalized rank estimate in [0,1].
	// With no observations the estimate is 0 (the node has no evidence).
	Estimate() float64
	// Samples returns the number of observations incorporated (g in the
	// paper for the counter estimator; min(observed, window) for the
	// sliding window).
	Samples() int
	// Reset clears all state.
	Reset()
	fmt.Stringer
}

// Counter is the unbounded estimator of Fig. 5: g counts every
// encountered attribute value, ℓ those lower than the node's own. All
// history weighs equally, so a churn-induced drift of the attribute
// population fades in only slowly (§5.3.4 motivates the alternative).
type Counter struct {
	g, l uint64
}

var _ Estimator = (*Counter)(nil)

// NewCounter returns an empty counter estimator.
func NewCounter() *Counter { return &Counter{} }

// Observe implements Estimator.
func (c *Counter) Observe(lower bool) {
	c.g++
	if lower {
		c.l++
	}
}

// Estimate implements Estimator: r_i = ℓ_i/g_i.
func (c *Counter) Estimate() float64 {
	if c.g == 0 {
		return 0
	}
	return float64(c.l) / float64(c.g)
}

// Samples implements Estimator.
func (c *Counter) Samples() int { return int(c.g) }

// Reset implements Estimator.
func (c *Counter) Reset() { c.g, c.l = 0, 0 }

// String implements fmt.Stringer.
func (c *Counter) String() string { return "counter" }

// Window is the sliding-window estimator of §5.3.4: it remembers only
// the most recent W observations, one bit each ("1 meaning that the
// attribute value is lower, and 0 otherwise"), so the estimate tracks a
// drifting attribute population. A window of 10⁴ samples costs 1.25 kB,
// as the paper computes.
type Window struct {
	bits []uint64
	size int
	used int
	next int // ring position of the next write
	ones int
}

var _ Estimator = (*Window)(nil)

// NewWindow returns an empty sliding-window estimator over the last
// size observations.
func NewWindow(size int) (*Window, error) {
	if size < 1 {
		return nil, ErrWindow
	}
	return &Window{bits: make([]uint64, (size+63)/64), size: size}, nil
}

// MustNewWindow is NewWindow for static configuration; it panics on
// error.
func MustNewWindow(size int) *Window {
	w, err := NewWindow(size)
	if err != nil {
		panic(err)
	}
	return w
}

// Observe implements Estimator: push the new bit, evicting the oldest
// when the window is full.
func (w *Window) Observe(lower bool) {
	word, bit := w.next/64, uint(w.next%64)
	mask := uint64(1) << bit
	old := w.bits[word]&mask != 0
	if w.used == w.size && old {
		w.ones--
	}
	if lower {
		w.bits[word] |= mask
		w.ones++
	} else {
		w.bits[word] &^= mask
	}
	if w.used < w.size {
		w.used++
	}
	w.next = (w.next + 1) % w.size
}

// Estimate implements Estimator.
func (w *Window) Estimate() float64 {
	if w.used == 0 {
		return 0
	}
	return float64(w.ones) / float64(w.used)
}

// Samples implements Estimator.
func (w *Window) Samples() int { return w.used }

// Reset implements Estimator.
func (w *Window) Reset() {
	for i := range w.bits {
		w.bits[i] = 0
	}
	w.used, w.next, w.ones = 0, 0, 0
}

// String implements fmt.Stringer.
func (w *Window) String() string { return fmt.Sprintf("window(%d)", w.size) }
