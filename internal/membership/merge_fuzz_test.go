package membership

import (
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

// fuzzReader hands out the fuzzer's bytes, then zeros.
type fuzzReader []byte

func (f *fuzzReader) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

// fuzzSelf is the receiver's ID; fuzzed IDs are drawn from a pool just
// past the view size, so batches overlap the view, repeat IDs and name
// the receiver.
const fuzzSelf = core.ID(1)

// entry decodes one view entry: an ID from [1, c+8] and an age that is
// young, straddles the trim histogram's last bucket (63), sits just
// below AgeUnknown, or is the AgeUnknown placeholder marker.
func (f *fuzzReader) entry(c int) view.Entry {
	id := core.ID(1 + int(f.byte())%(c+8))
	k, a := f.byte(), uint32(f.byte())
	var age uint32
	switch k % 6 {
	case 0:
		age = view.AgeUnknown
	case 1:
		age = 56 + a%16
	case 2:
		age = view.AgeUnknown - 1 - a%4
	default:
		age = a % 6
	}
	return view.Entry{ID: id, Age: age, Attr: core.Attr(f.byte() % 4), R: float64(f.byte()) / 256}
}

// FuzzCyclonMerge holds the live Cyclon merge — the fused kernel behind
// the UniqueIDs guard, or the scratch merge — equal, entry for entry and
// in order, to MergeUsing on a clone, for any resident view of at most c
// entries and any received batch: repeated IDs, the receiver's own ID,
// placeholders (including one followed by a real entry for the same
// ID) and ages up to AgeUnknown. The bytes decode to c ∈ [1, 16], the
// resident entries (added one by one, as a view is built), then the
// batch. The seed corpus in testdata/fuzz/FuzzCyclonMerge runs under
// plain `go test`; `make fuzz` mutates from it.
func FuzzCyclonMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzReader(data)
		c := 1 + int(in.byte()%16)
		v := view.MustNew(c)
		for n := int(in.byte()) % (c + 1); n > 0; n-- {
			if e := in.entry(c); e.ID != fuzzSelf {
				v.Add(e)
			}
		}
		batch := make([]view.Entry, int(in.byte())%(2*c+3))
		for i := range batch {
			batch[i] = in.entry(c)
		}
		want := v.Clone()
		want.MergeUsing(append([]view.Entry(nil), batch...), fuzzSelf, new(view.MergeScratch))

		NewCyclon(fuzzSelf, nil, v).HandleReply(2, proto.ViewReply{Entries: batch})
		if err := v.Validate(); err != nil {
			t.Fatalf("after merging %v: %v", batch, err)
		}
		got, exp := v.Entries(), want.Entries()
		if len(got) != len(exp) {
			t.Fatalf("merged %d entries, MergeUsing %d:\n got %v\nwant %v", len(got), len(exp), got, exp)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("entry %d: got %+v, MergeUsing %+v\n got %v\nwant %v", i, got[i], exp[i], got, exp)
			}
		}
	})
}
