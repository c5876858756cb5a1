package core

import (
	"fmt"
)

// Slice is a half-open interval (Low, High] of the normalized rank
// domain. A node whose normalized rank r satisfies Low < r ≤ High
// belongs to the slice.
type Slice struct {
	Low  float64
	High float64
}

// Width returns the fraction of the population the slice represents.
func (s Slice) Width() float64 { return s.High - s.Low }

// Mid returns the midpoint (Low+High)/2 used by the slice disorder
// measure (paper §4.4).
func (s Slice) Mid() float64 { return (s.Low + s.High) / 2 }

// Valid reports whether the slice is a non-empty subinterval of (0,1].
func (s Slice) Valid() bool {
	return s.Low >= 0 && s.High <= 1 && s.Low < s.High
}

// String implements fmt.Stringer.
func (s Slice) String() string {
	return fmt.Sprintf("(%.4g,%.4g]", s.Low, s.High)
}
