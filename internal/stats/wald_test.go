package stats

import (
	"errors"
	"math/rand"
	"testing"
)

func TestRequiredSamplesFormula(t *testing.T) {
	// k = (Z_{α/2}·√(p̂(1−p̂))/d)², α=0.05, p̂=0.5, d=0.05:
	// (1.96·0.5/0.05)² = 19.6² ≈ 384.1 → 385.
	k, err := RequiredSamples(0.05, 0.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k < 384 || k > 385 {
		t.Errorf("RequiredSamples = %d, want ≈ 385", k)
	}
}

func TestRequiredSamplesBoundaryNodesNeedMore(t *testing.T) {
	// Paper: "a node closer to the slice boundary needs more messages
	// than a node far from the boundary."
	far, err := RequiredSamples(0.05, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	near, err := RequiredSamples(0.05, 0.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if near <= far {
		t.Errorf("near-boundary node needs %d samples, far node %d; want near > far", near, far)
	}
}

func TestRequiredSamplesZeroVariance(t *testing.T) {
	for _, pHat := range []float64{0, 1} {
		k, err := RequiredSamples(0.05, pHat, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if k != 0 {
			t.Errorf("RequiredSamples(p̂=%v) = %d, want 0", pHat, k)
		}
	}
}

func TestRequiredSamplesErrors(t *testing.T) {
	if _, err := RequiredSamples(0.05, -0.1, 0.1); !errors.Is(err, ErrEstimate) {
		t.Errorf("bad estimate error = %v", err)
	}
	if _, err := RequiredSamples(0.05, 0.5, 0); !errors.Is(err, ErrDistance) {
		t.Errorf("bad distance error = %v", err)
	}
	if _, err := RequiredSamples(0, 0.5, 0.1); !errors.Is(err, ErrProbRange) {
		t.Errorf("bad alpha error = %v", err)
	}
}

// Property: SliceConfidence is the inverse of RequiredSamples — observing
// the required number of samples yields at least the requested
// confidence.
func TestConfidenceInvertsRequiredSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		alpha := 0.01 + 0.3*rng.Float64()
		pHat := 0.05 + 0.9*rng.Float64()
		d := 0.005 + 0.2*rng.Float64()
		k, err := RequiredSamples(alpha, pHat, d)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			continue
		}
		conf, err := SliceConfidence(k, pHat, d)
		if err != nil {
			t.Fatal(err)
		}
		if conf < 1-alpha-1e-9 {
			t.Fatalf("alpha=%v pHat=%v d=%v: k=%d gives confidence %v < %v",
				alpha, pHat, d, k, conf, 1-alpha)
		}
	}
}

func TestSliceConfidenceMonotoneInSamples(t *testing.T) {
	prev := -1.0
	for _, k := range []int{1, 10, 100, 1000, 10000} {
		c, err := SliceConfidence(k, 0.4, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if c < prev {
			t.Errorf("confidence decreased at k=%d: %v < %v", k, c, prev)
		}
		prev = c
	}
}

func TestSliceConfidenceEdgeCases(t *testing.T) {
	if c, _ := SliceConfidence(0, 0.5, 0.1); c != 0 {
		t.Errorf("confidence with no samples = %v, want 0", c)
	}
	if c, _ := SliceConfidence(100, 0, 0.1); c != 1 {
		t.Errorf("confidence with zero variance = %v, want 1", c)
	}
}

// Empirical validation of Theorem 5.1: simulate binomial sampling and
// check that after RequiredSamples observations the slice estimate is
// correct at least ~(1−α) of the time.
func TestTheorem51Empirical(t *testing.T) {
	const (
		alpha  = 0.1
		p      = 0.42 // true normalized rank
		trials = 600
	)
	// Slice boundary at 0.5 → distance d = 0.08.
	d := 0.08
	k, err := RequiredSamples(alpha, p, d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	correct := 0
	for trial := 0; trial < trials; trial++ {
		lower := 0
		for i := 0; i < k; i++ {
			if rng.Float64() < p {
				lower++
			}
		}
		est := float64(lower) / float64(k)
		if est <= 0.5 { // same slice as the true rank
			correct++
		}
	}
	frac := float64(correct) / trials
	if frac < 1-alpha-0.05 {
		t.Errorf("after k=%d samples only %.3f correct, want ≥ %.3f", k, frac, 1-alpha)
	}
}

// Theorem 5.1 as a table: as the distance d to the slice boundary
// shrinks, the required k never decreases, and k samples name the slice
// correctly with the requested confidence.
func TestThm51Table(t *testing.T) {
	const (
		alpha    = 0.05
		boundary = 0.5
		trials   = 600
	)
	rng := rand.New(rand.NewSource(1))
	prevK := 0
	for _, d := range []float64{0.1, 0.05, 0.02, 0.01} {
		p := boundary - d
		k, err := RequiredSamples(alpha, p, d)
		if err != nil {
			t.Fatal(err)
		}
		if k < prevK {
			t.Errorf("d=%v: required k %d below %d for a larger d", d, k, prevK)
		}
		prevK = k
		correct := 0
		for trial := 0; trial < trials; trial++ {
			lower := 0
			for i := 0; i < k; i++ {
				if rng.Float64() < p {
					lower++
				}
			}
			if float64(lower)/float64(k) <= boundary {
				correct++
			}
		}
		if frac := float64(correct) / trials; frac < 0.9 {
			t.Errorf("d=%v k=%d: empirical correctness %v below 0.9", d, k, frac)
		}
	}
}
