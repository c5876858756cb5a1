package view

import (
	"testing"

	"github.com/gossipkit/slicing/internal/core"
)

func TestPlaceholderPredicate(t *testing.T) {
	if (Entry{ID: 1, Age: 5}).Placeholder() {
		t.Error("real entry misreported as placeholder")
	}
	if !(Entry{ID: 1, Age: AgeUnknown}).Placeholder() {
		t.Error("placeholder not recognized")
	}
}

func TestAgeAllSkipsPlaceholders(t *testing.T) {
	v := MustNew(4)
	v.Add(Entry{ID: 1, Age: 3})
	v.Add(Entry{ID: 2, Age: AgeUnknown})
	v.AgeAll()
	e1, _ := v.Get(1)
	e2, _ := v.Get(2)
	if e1.Age != 4 {
		t.Errorf("real entry age = %d, want 4", e1.Age)
	}
	if !e2.Placeholder() {
		t.Errorf("placeholder aged into a real entry: age %d", e2.Age)
	}
}

func TestPlaceholderIsOldest(t *testing.T) {
	v := MustNew(4)
	v.Add(Entry{ID: 1, Age: 100})
	v.Add(Entry{ID: 2, Age: AgeUnknown})
	e, ok := v.Oldest()
	if !ok || e.ID != 2 {
		t.Errorf("Oldest = %v, want the placeholder (id 2)", e)
	}
}

func TestMergeReplacesPlaceholderWithRealEntry(t *testing.T) {
	v := MustNew(4)
	v.Add(Entry{ID: 7, Age: AgeUnknown}) // bootstrap contact
	v.MergeUsing([]Entry{{ID: 7, Age: 2, Attr: 42, R: 0.5}}, core.ID(1), new(MergeScratch))
	e, _ := v.Get(7)
	if e.Placeholder() || e.Attr != 42 {
		t.Errorf("placeholder not replaced: %+v", e)
	}
	// But a real entry still wins over an incoming duplicate (Fig. 3).
	v.MergeUsing([]Entry{{ID: 7, Age: 0, Attr: 99, R: 0.9}}, core.ID(1), new(MergeScratch))
	e, _ = v.Get(7)
	if e.Attr != 42 {
		t.Errorf("own real entry overwritten: %+v", e)
	}
}

func TestMergeDoesNotDowngradeToPlaceholder(t *testing.T) {
	v := MustNew(4)
	v.Add(Entry{ID: 7, Age: 1, Attr: 42, R: 0.5})
	v.MergeUsing([]Entry{{ID: 7, Age: AgeUnknown}}, core.ID(1), new(MergeScratch))
	e, _ := v.Get(7)
	if e.Placeholder() {
		t.Errorf("real entry downgraded to placeholder: %+v", e)
	}
}

func TestMergeFreshReplacesPlaceholder(t *testing.T) {
	v := MustNew(4)
	v.Add(Entry{ID: 7, Age: AgeUnknown})
	v.MergeFreshUsing([]Entry{{ID: 7, Age: 9, Attr: 42, R: 0.5}}, core.ID(1), new(MergeScratch))
	e, _ := v.Get(7)
	if e.Placeholder() {
		t.Errorf("MergeFresh kept the placeholder: %+v", e)
	}
}
