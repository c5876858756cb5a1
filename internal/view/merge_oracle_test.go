package view

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/gossipkit/slicing/internal/core"
)

// mergeOracle is the Cyclon-variant merge of Fig. 3 written the obvious
// way: grow the view past capacity, then evict the oldest entry until it
// fits. MergeUsing must leave exactly these entries in this order.
func mergeOracle(v *View, incoming []Entry, self core.ID) {
	for _, e := range incoming {
		if e.ID == self {
			continue
		}
		if i := findID(v.entries, e.ID); i >= 0 {
			if v.entries[i].Placeholder() && !e.Placeholder() {
				v.entries[i] = e
			}
			continue
		}
		v.entries = append(v.entries, e)
	}
	for len(v.entries) > v.capacity {
		v.evictOldest()
	}
}

// mergeFreshOracle is the Newscast merge written the obvious way:
// freshest duplicate wins, then keep the freshest capacity entries.
func mergeFreshOracle(v *View, incoming []Entry, self core.ID) {
	for _, e := range incoming {
		if e.ID == self {
			continue
		}
		if i := findID(v.entries, e.ID); i >= 0 {
			if e.Age < v.entries[i].Age {
				v.entries[i] = e
			}
			continue
		}
		v.entries = append(v.entries, e)
	}
	if len(v.entries) > v.capacity {
		sort.SliceStable(v.entries, func(i, j int) bool { return v.entries[i].Age < v.entries[j].Age })
		v.entries = v.entries[:v.capacity]
	}
}

// UniqueIDs is exact: IDs that share a bitset bit are told apart, a
// repeat is caught wherever it sits, and nothing is allocated.
func TestUniqueIDs(t *testing.T) {
	bit := func(id core.ID) uint64 { return uint64(id) * 0x9E3779B97F4A7C15 >> (64 - uniqueBits) }
	twin := core.ID(2)
	for bit(twin) != bit(1) {
		twin++
	}
	for _, tc := range []struct {
		ids  []core.ID
		want bool
	}{
		{nil, true},
		{[]core.ID{1}, true},
		{[]core.ID{1, twin}, true},
		{[]core.ID{1, twin, 1}, false},
		{[]core.ID{twin, 3, 4, twin}, false},
		{[]core.ID{1, 2, 3, 4, 5}, true},
		{[]core.ID{1, 2, 3, 4, 1}, false},
	} {
		batch := make([]Entry, len(tc.ids))
		for i, id := range tc.ids {
			batch[i] = Entry{ID: id}
		}
		if got := UniqueIDs(batch); got != tc.want {
			t.Errorf("UniqueIDs(%v) = %v, want %v", tc.ids, got, tc.want)
		}
	}
	f := func(raw []uint16) bool {
		batch := make([]Entry, len(raw))
		set := map[core.ID]bool{}
		for i, r := range raw {
			batch[i].ID = core.ID(1 + r%512)
			set[batch[i].ID] = true
		}
		return UniqueIDs(batch) == (len(set) == len(batch))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	batch := make([]Entry, 21)
	for i := range batch {
		batch[i].ID = core.ID(1 + 97*i)
	}
	if n := testing.AllocsPerRun(100, func() { UniqueIDs(batch) }); n != 0 {
		t.Errorf("UniqueIDs allocates %v times per call", n)
	}
}

// The live envelope path merges a wire payload that fails UniqueIDs (and
// every Newscast payload) through the scratch variants, so they must
// equal the oracles entry for entry on anything a peer can send —
// repeated IDs, entries describing the receiver,
// placeholders, ages past the trim histogram — and must never grow the
// view's own storage past its capacity.
func TestScratchMergesMatchOracles(t *testing.T) {
	ageAt := func(rng *rand.Rand) uint32 {
		switch rng.Intn(8) {
		case 0:
			return AgeUnknown
		case 1:
			return trimMaxAge + uint32(rng.Intn(50))
		default:
			return uint32(rng.Intn(6))
		}
	}
	const self = core.ID(5)
	var scr MergeScratch // shared across trials, as a pooled scratch is
	f := func(seed int64, fresh bool) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(12)
		got, want := MustNew(c), MustNew(c)
		entCap := cap(got.entries)
		for round := 0; round < 6; round++ {
			// IDs drawn from a pool barely larger than the view: most
			// batches repeat IDs, overlap the view and name self.
			in := make([]Entry, rng.Intn(2*c+2))
			for i := range in {
				in[i] = Entry{ID: core.ID(1 + rng.Intn(c+6)), Age: ageAt(rng), Attr: core.Attr(rng.Intn(4)), R: rng.Float64()}
			}
			if fresh {
				got.MergeFreshUsing(in, self, &scr)
				mergeFreshOracle(want, in, self)
			} else {
				got.MergeUsing(in, self, &scr)
				mergeOracle(want, in, self)
			}
			if len(got.entries) != len(want.entries) {
				return false
			}
			for i := range got.entries {
				if got.entries[i] != want.entries[i] {
					return false
				}
			}
			if got.Validate() != nil || got.Has(self) ||
				cap(got.entries) != entCap {
				return false
			}
			got.AgeAll()
			want.AgeAll()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
