package churn

import (
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
)

func sortedMembers(attrs ...core.Attr) []core.Member {
	ms := make([]core.Member, len(attrs))
	for i, a := range attrs {
		ms[i] = core.Member{ID: core.ID(i + 1), Attr: a}
	}
	core.SortMembers(ms)
	return ms
}

func TestNoneSchedule(t *testing.T) {
	// The static system is the zero Flat.
	var s Flat
	for _, cycle := range []int{0, 1, 100} {
		if e := s.At(cycle, 10000); e.Leave != 0 || e.Join != 0 {
			t.Errorf("Flat{}.At(%d) = %+v, want zero", cycle, e)
		}
	}
}

func TestBurstSchedule(t *testing.T) {
	// The paper's Fig. 6(c): 0.1% per cycle during the first 200 cycles
	// of a 10⁴-node system → 10 leaves + 10 joins per cycle.
	s := Compose(Phase{Schedule: Flat{JoinRate: 0.001, LeaveRate: 0.001}, Cycles: 200})
	tests := []struct {
		cycle     int
		wantLeave int
	}{
		{0, 10},
		{100, 10},
		{199, 10},
		{200, 0},
		{500, 0},
	}
	for _, tt := range tests {
		e := s.At(tt.cycle, 10000)
		if e.Leave != tt.wantLeave || e.Join != tt.wantLeave {
			t.Errorf("burst.At(%d) = %+v, want leave=join=%d", tt.cycle, e, tt.wantLeave)
		}
	}
}

func TestPeriodicSchedule(t *testing.T) {
	// Fig. 6(d): 0.1% every 10 cycles.
	s := Flat{JoinRate: 0.001, LeaveRate: 0.001, Every: 10}
	tests := []struct {
		cycle     int
		wantLeave int
	}{
		{0, 0}, // no churn before the system runs
		{1, 0},
		{10, 10},
		{15, 0},
		{20, 10},
		{990, 10},
	}
	for _, tt := range tests {
		e := s.At(tt.cycle, 10000)
		if e.Leave != tt.wantLeave || e.Join != tt.wantLeave {
			t.Errorf("periodic.At(%d) = %+v, want leave=join=%d", tt.cycle, e, tt.wantLeave)
		}
	}
}

func TestFlatSchedule(t *testing.T) {
	s := Flat{JoinRate: 0.002, LeaveRate: 0.001}
	for _, cycle := range []int{0, 1, 57} {
		e := s.At(cycle, 10000)
		if e.Join != 20 || e.Leave != 10 {
			t.Errorf("Flat.At(%d) = %+v, want join=20 leave=10", cycle, e)
		}
	}
	// One-sided flood: joins only.
	flood := Flat{JoinRate: 0.05}
	if e := flood.At(3, 1000); e.Join != 50 || e.Leave != 0 {
		t.Errorf("join flood event = %+v, want join=50 leave=0", e)
	}
}

func TestFlatScheduleEvery(t *testing.T) {
	// With Every set, Flat spaces events Every cycles apart and skips cycle 0.
	s := Flat{JoinRate: 0.001, LeaveRate: 0.001, Every: 10}
	tests := []struct {
		cycle     int
		wantLeave int
	}{
		{0, 0},
		{5, 0},
		{10, 10},
		{20, 10},
	}
	for _, tt := range tests {
		e := s.At(tt.cycle, 10000)
		if e.Leave != tt.wantLeave || e.Join != tt.wantLeave {
			t.Errorf("Flat.At(%d) = %+v, want leave=join=%d", tt.cycle, e, tt.wantLeave)
		}
	}
}

func TestComposeSequencesPhases(t *testing.T) {
	// Burst then steady: the paper's Fig. 6(c) regime followed by the
	// Fig. 6(d) regime, chained without a new Schedule type.
	s := Compose(
		Phase{Schedule: Flat{JoinRate: 0.001, LeaveRate: 0.001}, Cycles: 200},
		Phase{Schedule: Flat{JoinRate: 0.0005, LeaveRate: 0.0005, Every: 10}},
	)
	tests := []struct {
		cycle     int
		wantLeave int
	}{
		{0, 10},   // burst phase, every cycle
		{199, 10}, // last burst cycle
		{200, 0},  // steady phase, local cycle 0 → skipped
		{205, 0},  // steady phase, off-beat
		{210, 5},  // steady phase, local cycle 10
		{1200, 5}, // unbounded tail phase keeps going
		{1203, 0}, // …on its beat only
	}
	for _, tt := range tests {
		e := s.At(tt.cycle, 10000)
		if e.Leave != tt.wantLeave || e.Join != tt.wantLeave {
			t.Errorf("Compose.At(%d) = %+v, want leave=join=%d", tt.cycle, e, tt.wantLeave)
		}
	}
}

func TestComposeGapAndNilPhases(t *testing.T) {
	// A nil-schedule phase is an explicit quiet period; cycles past the
	// last bounded phase are static.
	s := Compose(
		Phase{Schedule: nil, Cycles: 100},
		Phase{Schedule: Flat{LeaveRate: 0.3}, Cycles: 1},
		Phase{Schedule: nil, Cycles: 50},
	)
	for _, tt := range []struct {
		cycle     int
		wantLeave int
	}{
		{0, 0}, {99, 0}, {100, 3000}, {101, 0}, {150, 0}, {10000, 0},
	} {
		if e := s.At(tt.cycle, 10000); e.Leave != tt.wantLeave || e.Join != 0 {
			t.Errorf("Compose.At(%d) = %+v, want leave=%d join=0", tt.cycle, e, tt.wantLeave)
		}
	}
}

func TestComposeEmpty(t *testing.T) {
	s := Compose()
	if e := s.At(5, 1000); e.Leave != 0 || e.Join != 0 {
		t.Errorf("empty Compose produced churn: %+v", e)
	}
}

func TestCountRounding(t *testing.T) {
	tests := []struct {
		rate float64
		n    int
		want int
	}{
		{0.001, 10000, 10},
		{0.001, 100, 1}, // floor would be 0; a positive rate churns ≥ 1
		{0.0015, 1000, 2},
		{0, 1000, 0},
		{0.5, 0, 0},
	}
	for _, tt := range tests {
		if got := count(tt.rate, tt.n); got != tt.want {
			t.Errorf("count(%v,%d) = %d, want %d", tt.rate, tt.n, got, tt.want)
		}
	}
}

func TestCorrelatedPickLeaversLowestAttrs(t *testing.T) {
	members := sortedMembers(50, 10, 30, 20, 40) // ids 1..5 by attr: 2,4,3,5,1
	p := Correlated{Spread: 1}
	ids := p.PickLeavers(rand.New(rand.NewSource(1)), members, 2)
	if len(ids) != 2 {
		t.Fatalf("got %d leavers, want 2", len(ids))
	}
	// Lowest attributes are 10 (id 2) and 20 (id 4).
	if ids[0] != 2 || ids[1] != 4 {
		t.Errorf("leavers = %v, want [2 4]", ids)
	}
}

func TestCorrelatedPickLeaversClamped(t *testing.T) {
	members := sortedMembers(1, 2)
	p := Correlated{Spread: 1}
	ids := p.PickLeavers(rand.New(rand.NewSource(1)), members, 10)
	if len(ids) != 2 {
		t.Errorf("got %d leavers, want the whole population 2", len(ids))
	}
}

func TestCorrelatedJoinAttrAboveMax(t *testing.T) {
	members := sortedMembers(5, 50, 500)
	p := Correlated{Spread: 2}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		a := p.JoinAttr(rng, members)
		if a <= 500 || a > 502 {
			t.Fatalf("join attr %v outside (500,502]", a)
		}
	}
}

func TestCorrelatedJoinAttrEmptySystem(t *testing.T) {
	p := Correlated{} // zero Spread defaults to 1
	rng := rand.New(rand.NewSource(8))
	a := p.JoinAttr(rng, nil)
	if a <= 0 || a > 1 {
		t.Errorf("join attr on empty system = %v, want (0,1]", a)
	}
}

func TestUniformPickLeaversIsUnbiased(t *testing.T) {
	members := sortedMembers(1, 2, 3, 4, 5, 6, 7, 8)
	p := Uniform{Dist: dist.Uniform{Lo: 0, Hi: 1}}
	rng := rand.New(rand.NewSource(9))
	counts := map[core.ID]int{}
	const trials = 4000
	for i := 0; i < trials; i++ {
		for _, id := range p.PickLeavers(rng, members, 2) {
			counts[id]++
		}
	}
	// Each member leaves with probability 1/4 per trial.
	want := trials / 4
	for id, c := range counts {
		if c < want*3/4 || c > want*5/4 {
			t.Errorf("member %v picked %d times, want ≈ %d", id, c, want)
		}
	}
}

func TestUniformJoinAttrFollowsDist(t *testing.T) {
	p := Uniform{Dist: dist.Uniform{Lo: 10, Hi: 20}}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		a := p.JoinAttr(rng, nil)
		if a < 10 || a >= 20 {
			t.Fatalf("join attr %v outside [10,20)", a)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []interface{ String() string }{
		Flat{JoinRate: 0.01, Every: 5},
		Compose(Phase{Schedule: Flat{JoinRate: 0.001}, Cycles: 10}, Phase{}),
		Correlated{}, Uniform{Dist: dist.Uniform{}},
	} {
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
}
