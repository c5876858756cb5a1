package view

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/gossipkit/slicing/internal/core"
)

func entry(id core.ID, age uint32) Entry {
	return Entry{ID: id, Age: age, Attr: core.Attr(id), R: float64(id) / 100}
}

// A view row is Table 1's four fields, (ID uint32, Age uint32, Attr, R):
// 24 bytes with the ID in the first word, where findID reads it. It is
// paid c times per node in the sim's arena and again in its exchange
// staging, and c times per live node, so the size is pinned exactly.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 24 {
		t.Errorf("Entry is %d bytes, want 24", got)
	}
	if got := unsafe.Offsetof(Entry{}.ID); got != 0 {
		t.Errorf("Entry.ID sits at offset %d, want 0", got)
	}
}

func TestNewCapacity(t *testing.T) {
	if _, err := New(0); !errors.Is(err, ErrCapacity) {
		t.Errorf("New(0) error = %v, want ErrCapacity", err)
	}
	v, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cap() != 5 || v.Len() != 0 {
		t.Errorf("fresh view cap=%d len=%d, want 5,0", v.Cap(), v.Len())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestAddGetRemove(t *testing.T) {
	v := MustNew(3)
	v.Add(entry(1, 0))
	v.Add(entry(2, 1))
	if got := v.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	e, ok := v.Get(1)
	if !ok || e.ID != 1 {
		t.Fatalf("Get(1) = %v,%v", e, ok)
	}
	if !v.Has(2) || v.Has(9) {
		t.Error("Has results wrong")
	}
	if !v.Remove(1) || v.Remove(1) {
		t.Error("Remove(1) should succeed once")
	}
	if v.Len() != 1 {
		t.Errorf("Len after remove = %d, want 1", v.Len())
	}
}

func TestAddReplacesSameID(t *testing.T) {
	v := MustNew(3)
	v.Add(entry(1, 5))
	v.Add(Entry{ID: 1, Age: 0, Attr: 42, R: 0.9})
	if v.Len() != 1 {
		t.Fatalf("Len = %d, want 1", v.Len())
	}
	e, _ := v.Get(1)
	if e.Attr != 42 || e.Age != 0 {
		t.Errorf("entry not replaced: %+v", e)
	}
}

func TestAddEvictsOldestWhenFull(t *testing.T) {
	v := MustNew(2)
	v.Add(entry(1, 9)) // oldest
	v.Add(entry(2, 1))
	v.Add(entry(3, 0))
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.Has(1) {
		t.Error("oldest entry not evicted")
	}
	if !v.Has(2) || !v.Has(3) {
		t.Error("wrong entry evicted")
	}
}

// Oldest returns the entry with the maximal age (Fig. 3 line 2), the
// two-step oracle AgeAllOldest is checked against. Ties resolve to the
// earliest-stored entry.
func (v *View) Oldest() (Entry, bool) {
	if len(v.entries) == 0 {
		return Entry{}, false
	}
	best := 0
	for i := range v.entries {
		if v.entries[i].Age > v.entries[best].Age {
			best = i
		}
	}
	return v.entries[best], true
}

func TestOldest(t *testing.T) {
	v := MustNew(4)
	if _, ok := v.Oldest(); ok {
		t.Error("Oldest on empty view should report !ok")
	}
	v.Add(entry(1, 2))
	v.Add(entry(2, 7))
	v.Add(entry(3, 4))
	e, ok := v.Oldest()
	if !ok || e.ID != 2 {
		t.Errorf("Oldest = %v, want id 2", e)
	}
}

func TestAgeAll(t *testing.T) {
	v := MustNew(3)
	v.Add(entry(1, 0))
	v.Add(entry(2, 5))
	v.AgeAll()
	e1, _ := v.Get(1)
	e2, _ := v.Get(2)
	if e1.Age != 1 || e2.Age != 6 {
		t.Errorf("ages = %d,%d want 1,6", e1.Age, e2.Age)
	}
}

func TestRandomUniform(t *testing.T) {
	v := MustNew(3)
	if _, ok := v.Random(rand.New(rand.NewSource(1))); ok {
		t.Error("Random on empty view should report !ok")
	}
	v.Add(entry(1, 0))
	v.Add(entry(2, 0))
	v.Add(entry(3, 0))
	rng := rand.New(rand.NewSource(42))
	counts := map[core.ID]int{}
	for i := 0; i < 3000; i++ {
		e, ok := v.Random(rng)
		if !ok {
			t.Fatal("Random failed")
		}
		counts[e.ID]++
	}
	for id, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("entry %v drawn %d/3000 times, want ≈1000", id, c)
		}
	}
}

func TestUpdateR(t *testing.T) {
	v := MustNew(2)
	v.Add(entry(1, 0))
	got, ok := v.UpdateR(1, 0.75)
	if !ok {
		t.Fatal("UpdateR(1) failed")
	}
	if _, ok := v.UpdateR(9, 0.5); ok {
		t.Error("UpdateR on absent id should fail")
	}
	e, _ := v.Get(1)
	if e.R != 0.75 || got != e {
		t.Errorf("stored %+v, returned %+v, want both with R = 0.75", e, got)
	}
}

func TestMergeKeepsOwnOnDuplicate(t *testing.T) {
	v := MustNew(4)
	v.Add(Entry{ID: 1, Age: 3, R: 0.1})
	incoming := []Entry{
		{ID: 1, Age: 0, R: 0.9}, // duplicate: own version wins
		{ID: 2, Age: 1},
		{ID: 7, Age: 0}, // self: dropped
	}
	v.MergeUsing(incoming, 7, new(MergeScratch))
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	e, _ := v.Get(1)
	if e.R != 0.1 || e.Age != 3 {
		t.Errorf("duplicate did not keep own version: %+v", e)
	}
	if v.Has(7) {
		t.Error("self entry merged")
	}
}

func TestMergeTrimsOldest(t *testing.T) {
	v := MustNew(2)
	v.Add(entry(1, 9))
	v.Add(entry(2, 1))
	v.MergeUsing([]Entry{entry(3, 0), entry(4, 5)}, 99, new(MergeScratch))
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want cap 2", v.Len())
	}
	if v.Has(1) || v.Has(4) {
		t.Errorf("expected oldest (1, then 4) evicted, view: %v", v)
	}
}

func TestMergeFreshPrefersYounger(t *testing.T) {
	v := MustNew(4)
	v.Add(Entry{ID: 1, Age: 5, R: 0.1})
	v.MergeFreshUsing([]Entry{{ID: 1, Age: 2, R: 0.9}}, 99, new(MergeScratch))
	e, _ := v.Get(1)
	if e.Age != 2 || e.R != 0.9 {
		t.Errorf("MergeFresh kept stale entry: %+v", e)
	}
	// An older incoming entry must not replace a fresher own entry.
	v.MergeFreshUsing([]Entry{{ID: 1, Age: 9, R: 0.5}}, 99, new(MergeScratch))
	e, _ = v.Get(1)
	if e.Age != 2 {
		t.Errorf("MergeFresh replaced fresher entry: %+v", e)
	}
}

func TestMergeFreshKeepsFreshestWithinCapacity(t *testing.T) {
	v := MustNew(2)
	v.Add(entry(1, 9))
	v.Add(entry(2, 0))
	v.MergeFreshUsing([]Entry{entry(3, 1), entry(4, 8)}, 99, new(MergeScratch))
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if !v.Has(2) || !v.Has(3) {
		t.Errorf("expected the two freshest entries (2,3), got %v", v)
	}
}

func TestClone(t *testing.T) {
	v := MustNew(3)
	v.Add(entry(1, 0))
	c := v.Clone()
	c.Add(entry(2, 0))
	if v.Len() != 1 || c.Len() != 2 {
		t.Error("Clone shares state with original")
	}
}

func TestEntriesIsACopy(t *testing.T) {
	v := MustNew(3)
	v.Add(entry(1, 0))
	es := v.Entries()
	es[0].R = 0.999
	e, _ := v.Get(1)
	if e.R == 0.999 {
		t.Error("Entries exposed internal storage")
	}
}

// Property: any sequence of Add/Merge/Remove preserves the invariants
// (unique IDs, size ≤ capacity).
func TestViewInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		v := MustNew(1 + rng.Intn(10))
		const self = core.ID(1000)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				v.Add(entry(core.ID(rng.Intn(30)), uint32(rng.Intn(10))))
			case 1:
				in := make([]Entry, rng.Intn(8))
				for i := range in {
					in[i] = entry(core.ID(rng.Intn(30)), uint32(rng.Intn(10)))
				}
				v.MergeUsing(in, self, new(MergeScratch))
			case 2:
				in := make([]Entry, rng.Intn(8))
				for i := range in {
					in[i] = entry(core.ID(rng.Intn(30)), uint32(rng.Intn(10)))
				}
				v.MergeFreshUsing(in, self, new(MergeScratch))
			case 3:
				v.Remove(core.ID(rng.Intn(30)))
			}
			if err := v.Validate(); err != nil {
				return false
			}
			if v.Has(self) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTrimOldestMatchesRepeatedEviction pins the single-pass trim
// (unionTrimThreshold + removeByThreshold) to its reference semantics:
// k repeated evictOldest calls (first-stored entry wins age ties),
// including ages beyond the histogram range and AgeUnknown placeholders,
// which exercise the exact-selection fallback. The threshold is taken
// over a random two-way split of the entries, down to an empty second
// half — the shape MergeUsing passes.
func TestTrimOldestMatchesRepeatedEviction(t *testing.T) {
	ageAt := func(rng *rand.Rand) uint32 {
		switch rng.Intn(6) {
		case 0:
			return AgeUnknown // placeholder: maximally old
		case 1:
			return trimMaxAge + uint32(rng.Intn(50)) // beyond the histogram
		default:
			return uint32(rng.Intn(8))
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		k := 1 + rng.Intn(n-1)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{ID: core.ID(i + 1), Age: ageAt(rng)}
		}
		var ages []uint32
		var hist [trimMaxAge + 1]int32
		split := 1 + rng.Intn(n)
		thresh, quota := unionTrimThreshold(entries[:split], entries[split:], k, &ages, &hist)
		fast := &View{}
		fast.entries = removeByThreshold(append([]Entry(nil), entries...), thresh, quota)
		slow := &View{entries: append([]Entry(nil), entries...)}
		for i := 0; i < k; i++ {
			slow.evictOldest()
		}
		if len(fast.entries) != len(slow.entries) {
			return false
		}
		for i := range fast.entries {
			if fast.entries[i] != slow.entries[i] {
				return false
			}
		}
		return fast.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestViewString(t *testing.T) {
	v := MustNew(2)
	v.Add(entry(1, 3))
	if got := v.String(); got != "[n1(age=3)]" {
		t.Errorf("String() = %q", got)
	}
}
