package ranking

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounterEstimate(t *testing.T) {
	c := NewCounter()
	if got := c.Estimate(); got != 0 {
		t.Errorf("empty estimate = %v, want 0", got)
	}
	c.Observe(true)
	c.Observe(true)
	c.Observe(false)
	c.Observe(false)
	if got := c.Estimate(); got != 0.5 {
		t.Errorf("estimate = %v, want 0.5", got)
	}
	if got := c.Samples(); got != 4 {
		t.Errorf("samples = %d, want 4", got)
	}
}

func TestCounterReset(t *testing.T) {
	c := NewCounter()
	c.Observe(true)
	c.Reset()
	if c.Samples() != 0 || c.Estimate() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestNewWindowValidation(t *testing.T) {
	if _, err := NewWindow(0); !errors.Is(err, ErrWindow) {
		t.Errorf("NewWindow(0) error = %v, want ErrWindow", err)
	}
	if _, err := NewWindow(-5); !errors.Is(err, ErrWindow) {
		t.Errorf("NewWindow(-5) error = %v, want ErrWindow", err)
	}
}

func TestMustNewWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewWindow(0) did not panic")
		}
	}()
	MustNewWindow(0)
}

func TestWindowBeforeFull(t *testing.T) {
	w := MustNewWindow(8)
	w.Observe(true)
	w.Observe(false)
	w.Observe(true)
	if got := w.Samples(); got != 3 {
		t.Errorf("samples = %d, want 3", got)
	}
	if got := w.Estimate(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("estimate = %v, want 2/3", got)
	}
}

func TestWindowEviction(t *testing.T) {
	w := MustNewWindow(4)
	// Fill with ones, then push zeros: the ones must age out.
	for i := 0; i < 4; i++ {
		w.Observe(true)
	}
	if got := w.Estimate(); got != 1 {
		t.Errorf("estimate after ones = %v, want 1", got)
	}
	for i := 0; i < 4; i++ {
		w.Observe(false)
	}
	if got := w.Estimate(); got != 0 {
		t.Errorf("estimate after zeros = %v, want 0", got)
	}
	if got := w.Samples(); got != 4 {
		t.Errorf("samples = %d, want window size 4", got)
	}
}

func TestWindowTracksDrift(t *testing.T) {
	// A drifting population: a counter estimator stays anchored to old
	// history, the window follows.
	w := MustNewWindow(100)
	c := NewCounter()
	for i := 0; i < 1000; i++ {
		w.Observe(true)
		c.Observe(true)
	}
	for i := 0; i < 200; i++ {
		w.Observe(false)
		c.Observe(false)
	}
	if got := w.Estimate(); got != 0 {
		t.Errorf("window estimate = %v, want 0 after drift", got)
	}
	if got := c.Estimate(); got < 0.8 {
		t.Errorf("counter estimate = %v, expected to lag near 1000/1200", got)
	}
}

// Property: the window estimator agrees with a naive FIFO reference
// implementation on any observation sequence.
func TestWindowMatchesNaiveFIFO(t *testing.T) {
	f := func(sizeRaw uint8, obs []bool) bool {
		size := int(sizeRaw%130) + 1
		w := MustNewWindow(size)
		var fifo []bool
		for _, b := range obs {
			w.Observe(b)
			fifo = append(fifo, b)
			if len(fifo) > size {
				fifo = fifo[1:]
			}
			ones := 0
			for _, x := range fifo {
				if x {
					ones++
				}
			}
			want := 0.0
			if len(fifo) > 0 {
				want = float64(ones) / float64(len(fifo))
			}
			if math.Abs(w.Estimate()-want) > 1e-12 || w.Samples() != len(fifo) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWindowReset(t *testing.T) {
	w := MustNewWindow(16)
	for i := 0; i < 20; i++ {
		w.Observe(i%2 == 0)
	}
	w.Reset()
	if w.Samples() != 0 || w.Estimate() != 0 {
		t.Error("Reset did not clear state")
	}
	w.Observe(true)
	if w.Estimate() != 1 {
		t.Error("window unusable after Reset")
	}
}

// The paper's §5.3.4 memory computation: 10⁴ samples at one bit each is
// 1.25 kB.
func TestWindowMemoryFootprint(t *testing.T) {
	w := MustNewWindow(10000)
	if got := len(w.bits) * 8; got != 1256 && got != 1250 {
		// 10000 bits = 1250 bytes, rounded up to 64-bit words: 1256.
		t.Errorf("bit buffer = %d B, want ≈ 1250 (paper: 1.25 kB)", got)
	}
	if w.size != 10000 {
		t.Errorf("size = %d, want 10000", w.size)
	}
}

// Property: estimates always stay within [0,1] for both estimators.
func TestEstimateBounds(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCounter()
		w := MustNewWindow(64)
		for i := 0; i < int(n%2000); i++ {
			b := rng.Intn(2) == 0
			c.Observe(b)
			w.Observe(b)
			for _, e := range []Estimator{c, w} {
				if est := e.Estimate(); est < 0 || est > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: on a stationary stream with known lower-fraction p, both
// estimators converge to p.
func TestEstimatorsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, p := range []float64{0.1, 0.5, 0.9} {
		c := NewCounter()
		w := MustNewWindow(5000)
		for i := 0; i < 20000; i++ {
			b := rng.Float64() < p
			c.Observe(b)
			w.Observe(b)
		}
		if got := c.Estimate(); math.Abs(got-p) > 0.02 {
			t.Errorf("counter estimate %v, want ≈ %v", got, p)
		}
		if got := w.Estimate(); math.Abs(got-p) > 0.03 {
			t.Errorf("window estimate %v, want ≈ %v", got, p)
		}
	}
}

func TestStringers(t *testing.T) {
	if NewCounter().String() != "counter" {
		t.Error("Counter.String() wrong")
	}
	if MustNewWindow(8).String() != "window(8)" {
		t.Error("Window.String() wrong")
	}
}
