package fault

import (
	"math"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
)

func TestWindowContains(t *testing.T) {
	w := Window{From: 10, To: 20}
	for _, tc := range []struct {
		c    int
		want bool
	}{{9, false}, {10, true}, {19, true}, {20, false}} {
		if got := w.Contains(tc.c); got != tc.want {
			t.Errorf("Window{10,20}.Contains(%d) = %v, want %v", tc.c, got, tc.want)
		}
	}
	open := Window{From: 5}
	if !open.Contains(1 << 20) {
		t.Error("open-ended window closed")
	}
	if open.Contains(4) {
		t.Error("open-ended window contains cycles before From")
	}
}

// TestSelectDeterministicAndProportional pins that cohort selection is
// a pure function of (salt, id) and that the selected fraction tracks
// frac.
func TestSelectDeterministicAndProportional(t *testing.T) {
	const n, frac = 10_000, 0.1
	salt := ByzantineSalt(42)
	count := 0
	for id := uint64(0); id < n; id++ {
		a, b := Select(salt, id, frac), Select(salt, id, frac)
		if a != b {
			t.Fatalf("Select not deterministic for id %d", id)
		}
		if a {
			count++
		}
	}
	got := float64(count) / n
	if got < frac/2 || got > frac*2 {
		t.Errorf("selected fraction = %.3f, want ≈ %.2f", got, frac)
	}
	// A different salt picks a different cohort.
	diff := 0
	other := ByzantineSalt(43)
	for id := uint64(0); id < n; id++ {
		if Select(salt, id, frac) != Select(other, id, frac) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("cohort is salt-insensitive")
	}
}

// TestGroupBalance pins that partition groups are roughly even and
// deterministic.
func TestGroupBalance(t *testing.T) {
	const n, groups = 9_000, 3
	salt := PartitionSalt(7)
	counts := make([]int, groups)
	for id := uint64(0); id < n; id++ {
		g := Group(salt, id, groups)
		if g != Group(salt, id, groups) {
			t.Fatalf("Group not deterministic for id %d", id)
		}
		counts[g]++
	}
	for g, c := range counts {
		if c < n/groups/2 || c > n/groups*2 {
			t.Errorf("group %d holds %d of %d nodes — badly unbalanced", g, c, n)
		}
	}
	if Group(salt, 123, 1) != 0 || Group(salt, 123, 0) != 0 {
		t.Error("degenerate group counts must collapse to group 0")
	}
}

func TestDriftStepAppliesOnce(t *testing.T) {
	d := &Drift{Kind: DriftStep, Window: Window{From: 5, To: 50}, Frac: 1, Amp: 10}
	for c := 0; c < 60; c++ {
		want := c == 5
		if got := d.Applies(c); got != want {
			t.Errorf("step drift Applies(%d) = %v, want %v", c, got, want)
		}
	}
	if d.Delta(5, 0.3) != 10 {
		t.Errorf("step delta = %v, want Amp", d.Delta(5, 0.3))
	}
}

func TestDriftWalkEvery(t *testing.T) {
	d := &Drift{Kind: DriftWalk, Window: Window{From: 4, To: 20}, Frac: 1, Amp: 2, Every: 3}
	applied := []int{}
	for c := 0; c < 24; c++ {
		if d.Applies(c) {
			applied = append(applied, c)
		}
	}
	want := []int{4, 7, 10, 13, 16, 19}
	if len(applied) != len(want) {
		t.Fatalf("walk applied at %v, want %v", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("walk applied at %v, want %v", applied, want)
		}
	}
	if got := d.Delta(4, 1); got != 2 {
		t.Errorf("walk delta at u=1 is %v, want +Amp", got)
	}
	if got := d.Delta(4, 0); got != -2 {
		t.Errorf("walk delta at u=0 is %v, want -Amp", got)
	}
}

// TestDriftOscillateReturnsToBase pins the incremental-sine identity:
// summing the deltas over one full period cancels out, so an
// oscillating cohort returns to its base attribute.
func TestDriftOscillateReturnsToBase(t *testing.T) {
	d := &Drift{Kind: DriftOscillate, Window: Window{From: 10}, Frac: 1, Amp: 50, Period: 40}
	sum := 0.0
	for c := 10; c < 50; c++ {
		if !d.Applies(c) {
			t.Fatalf("oscillate inactive at cycle %d inside window", c)
		}
		sum += d.Delta(c, 0)
	}
	if math.Abs(sum) > 1e-9 {
		t.Errorf("oscillation deltas over one period sum to %v, want 0", sum)
	}
}

func TestPlanValidate(t *testing.T) {
	ok := &Plan{
		Drift:     &Drift{Kind: DriftWalk, Window: Window{From: 0, To: 10}, Frac: 0.2, Amp: 5},
		Byzantine: &Byzantine{Policy: LieAlwaysTop, Window: Window{From: 0}, Frac: 0.1},
		Partition: &Partition{Window: Window{From: 5, To: 15}, Groups: 2},
		Chaos:     []Chaos{{Window: Window{From: 0, To: 5}, Loss: 0.5, Dup: 0.1, Delay: 0.2, DelayMS: 40}},
	}
	if err := ok.Validate(10); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(10); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
	if !nilPlan.Empty() {
		t.Error("nil plan not Empty")
	}
	ten, minusOne := 10, -1
	for name, p := range map[string]*Plan{
		"driftKind":   {Drift: &Drift{Kind: 0, Frac: 0.5, Amp: 1}},
		"driftFrac":   {Drift: &Drift{Kind: DriftWalk, Frac: 0, Amp: 1}},
		"driftAmp":    {Drift: &Drift{Kind: DriftWalk, Frac: 0.5, Amp: 0}},
		"driftPeriod": {Drift: &Drift{Kind: DriftOscillate, Frac: 0.5, Amp: 1, Period: 1}},
		"byzPolicy":   {Byzantine: &Byzantine{Policy: 0, Frac: 0.1}},
		"byzFrac":     {Byzantine: &Byzantine{Policy: LieRandom, Frac: 1.5}},
		"byzTarget":   {Byzantine: &Byzantine{Policy: LieCollusive, Frac: 0.1, TargetSlice: &ten}},
		"byzNegative": {Byzantine: &Byzantine{Policy: LieCollusive, Frac: 0.1, TargetSlice: &minusOne}},
		"groups":      {Partition: &Partition{Groups: 1}},
		"window":      {Partition: &Partition{Groups: 2, Window: Window{From: 10, To: 5}}},
		"chaosProb":   {Chaos: []Chaos{{Loss: 1.5}}},
		"chaosEmpty":  {Chaos: []Chaos{{}}},
		"chaosDelay":  {Chaos: []Chaos{{Delay: 0.1, DelayMS: -1}}},
	} {
		if err := p.Validate(10); err == nil {
			t.Errorf("%s: invalid plan accepted", name)
		}
	}
}

func TestByzantineTarget(t *testing.T) {
	b := &Byzantine{Policy: LieAlwaysTop, Frac: 0.1}
	if got := b.Target(10); got != 9 {
		t.Errorf("default target = %d, want top slice 9", got)
	}
	three := 3
	b.TargetSlice = &three
	if got := b.Target(10); got != 3 {
		t.Errorf("explicit target = %d, want 3", got)
	}
}

func TestPlanChaosAt(t *testing.T) {
	p := &Plan{Chaos: []Chaos{
		{Window: Window{From: 0, To: 5}, Loss: 0.5},
		{Window: Window{From: 10, To: 20}, Dup: 0.3},
	}}
	if c := p.ChaosAt(2); c == nil || c.Loss != 0.5 {
		t.Error("cycle 2 should hit the loss window")
	}
	if c := p.ChaosAt(7); c != nil {
		t.Error("cycle 7 is between windows, got a chaos config")
	}
	if c := p.ChaosAt(15); c == nil || c.Dup != 0.3 {
		t.Error("cycle 15 should hit the dup window")
	}
}

// TestChaosDecideRates pins the chaos verdict's statistics: over many
// messages, drop, delay and dup fire at Loss, Delay and Dup within 4σ,
// and drop∧dup fires at Loss·Dup, so the three draws are independent.
// The verdict is a pure function of the message, and 0 and 1 are exact.
func TestChaosDecideRates(t *testing.T) {
	const n = 200_000
	ch := Chaos{Loss: 0.25, Delay: 0.1, Dup: 0.15}
	salt := ChaosSalt(42)
	var drops, delays, dups, both int
	for i := 0; i < n; i++ {
		// Every (from, key) pair is distinct: from cycles over 1,000
		// senders, key counts the rounds.
		from, to := core.ID(i%1000+1), core.ID((i*7919)%1000+1)
		key := uint64(i / 1000)
		drop, delay, dup := ch.Decide(salt, from, to, key)
		if d2, l2, u2 := ch.Decide(salt, from, to, key); d2 != drop || l2 != delay || u2 != dup {
			t.Fatalf("Decide(%d, %d, %d) is not a pure function", from, to, key)
		}
		if drop {
			drops++
		}
		if delay {
			delays++
		}
		if dup {
			dups++
		}
		if drop && dup {
			both++
		}
	}
	for _, tc := range []struct {
		name  string
		count int
		p     float64
	}{
		{"drop", drops, ch.Loss},
		{"delay", delays, ch.Delay},
		{"dup", dups, ch.Dup},
		{"drop∧dup", both, ch.Loss * ch.Dup},
	} {
		got := float64(tc.count) / n
		sigma := math.Sqrt(tc.p * (1 - tc.p) / n)
		if math.Abs(got-tc.p) > 4*sigma {
			t.Errorf("%s frequency = %.5f, want %.5f ± %.5f (4σ)", tc.name, got, tc.p, 4*sigma)
		}
	}
	never, always := Chaos{}, Chaos{Loss: 1, Delay: 1, Dup: 1}
	for key := uint64(0); key < 1000; key++ {
		if d, l, u := never.Decide(salt, 1, 2, key); d || l || u {
			t.Fatalf("zero rates fired on key %d", key)
		}
		if d, l, u := always.Decide(salt, 1, 2, key); !d || !l || !u {
			t.Fatalf("unit rates missed on key %d", key)
		}
	}
}
