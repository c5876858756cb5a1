package core

import (
	"math"
	"testing"
	"testing/quick"
)

// Contains reports whether normalized rank r falls inside the slice: the
// (Low, High] membership rule the lookups are checked against.
func (s Slice) Contains(r float64) bool { return s.Low < r && r <= s.High }

func TestSliceContains(t *testing.T) {
	tests := []struct {
		name  string
		slice Slice
		r     float64
		want  bool
	}{
		{"inside", Slice{0.2, 0.4}, 0.3, true},
		{"at upper boundary", Slice{0.2, 0.4}, 0.4, true},
		{"at lower boundary", Slice{0.2, 0.4}, 0.2, false},
		{"below", Slice{0.2, 0.4}, 0.1, false},
		{"above", Slice{0.2, 0.4}, 0.5, false},
		{"full domain upper", Slice{0, 1}, 1, true},
		{"full domain zero excluded", Slice{0, 1}, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.slice.Contains(tt.r); got != tt.want {
				t.Errorf("Slice%v.Contains(%v) = %v, want %v", tt.slice, tt.r, got, tt.want)
			}
		})
	}
}

func TestSliceWidthMid(t *testing.T) {
	s := Slice{0.25, 0.75}
	if got := s.Width(); got != 0.5 {
		t.Errorf("Width() = %v, want 0.5", got)
	}
	if got := s.Mid(); got != 0.5 {
		t.Errorf("Mid() = %v, want 0.5", got)
	}
}

func TestSliceValid(t *testing.T) {
	tests := []struct {
		name  string
		slice Slice
		want  bool
	}{
		{"proper", Slice{0.1, 0.9}, true},
		{"full", Slice{0, 1}, true},
		{"inverted", Slice{0.9, 0.1}, false},
		{"empty", Slice{0.5, 0.5}, false},
		{"below domain", Slice{-0.1, 0.5}, false},
		{"above domain", Slice{0.5, 1.1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.slice.Valid(); got != tt.want {
				t.Errorf("Slice%v.Valid() = %v, want %v", tt.slice, got, tt.want)
			}
		})
	}
}

func TestSliceString(t *testing.T) {
	s := Slice{0.2, 0.4}
	if got, want := s.String(), "(0.2,0.4]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: the midpoint of any valid slice is inside the slice.
func TestSliceMidInside(t *testing.T) {
	f := func(a, b float64) bool {
		lo, hi := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			return true // empty slice: nothing to check
		}
		s := Slice{lo, hi}
		return s.Contains(s.Mid())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
