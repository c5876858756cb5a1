package membership

import (
	"slices"
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
		sameEntries(t, "merged view", v.Entries(), want.Entries())
	})
}

// sameEntries fails the test unless got equals want entry for entry,
// in order.
func sameEntries(t *testing.T, what string, got, want []view.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d:\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d is %+v, want %+v\n got %v\nwant %v", what, i, got[i], want[i], got, want)
		}
	}
}

// without is the reference removal of id's entry from a view snapshot.
func without(entries []view.Entry, id core.ID) []view.Entry {
	return slices.DeleteFunc(entries, func(e view.Entry) bool { return e.ID == id })
}

// The exchange's two ends: the initiator is fuzzSelf, the partner the
// next ID, so fuzzed entries name both.
const fuzzPartner = fuzzSelf + 1

// fill adds up to c decoded entries to v, skipping the owner's own ID.
func (f *fuzzReader) fill(v *view.View, owner core.ID) {
	for n := int(f.byte()) % (v.Cap() + 1); n > 0; n-- {
		if e := f.entry(v.Cap()); e.ID != owner {
			v.Add(e)
		}
	}
}

// FuzzCyclonExchange holds one live Cyclon exchange — Tick's pooled
// request, the reply written into the request's array by MergeReply,
// the reply's array recycled after HandleReply — equal to the
// copy-per-message exchange it replaced: the request is the initiator's
// aged view minus its target plus a fresh self entry, the reply is the
// partner's pre-merge view minus the initiator, and each side merges
// with MergeUsing. The bytes decode to c ∈ [1, 16], a mode, both views,
// then the request: the initiator's own Tick payload (mode bit 0 clear)
// or a decoded batch with repeated IDs, placeholders and entries naming
// either end (bit 0 set), and a spare capacity; mode bit 1 leaves the
// request's array no room beyond its entries, so it may be shorter than
// the partner's view. The seed corpus in testdata/fuzz/FuzzCyclonExchange
// runs under plain `go test`.
func FuzzCyclonExchange(f *testing.F) {
	self := func(id core.ID) SelfEntryFunc {
		return func() view.Entry { return view.Entry{ID: id, Attr: core.Attr(id), R: 0.5} }
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzReader(data)
		c := 1 + int(in.byte()%16)
		mode := in.byte()
		va, vb := view.MustNew(c), view.MustNew(c)
		in.fill(va, fuzzSelf)
		in.fill(vb, fuzzPartner)
		a := NewCyclon(fuzzSelf, self(fuzzSelf), va)
		b := NewCyclon(fuzzPartner, self(fuzzPartner), vb)
		wantA, wantB := va.Clone(), vb.Clone()

		var req []view.Entry
		if mode&1 == 0 {
			oldest, ok := wantA.AgeAllOldest()
			envs := a.Tick(nil)
			if !ok {
				if len(envs) != 0 {
					t.Fatalf("Tick on an empty view sent %d envelopes", len(envs))
				}
				return
			}
			if len(envs) != 1 || envs[0].To != oldest.ID {
				t.Fatalf("Tick sent %v, want one request to the oldest neighbor %v", envs, oldest.ID)
			}
			req = envs[0].Msg.(proto.ViewRequest).Entries
			want := append(without(wantA.Entries(), oldest.ID), self(fuzzSelf)())
			sameEntries(t, "request", req, want)
		} else {
			n := int(in.byte()) % (2*c + 3)
			req = make([]view.Entry, n, n+int(in.byte())%(c+2))
			for i := range req {
				req[i] = in.entry(c)
			}
		}
		if mode&2 != 0 {
			req = req[:len(req):len(req)]
		}

		wantReply := without(wantB.Entries(), fuzzSelf)
		wantB.MergeUsing(slices.Clone(req), fuzzPartner, new(view.MergeScratch))
		replies := b.HandleRequest(fuzzSelf, proto.ViewRequest{Entries: req}, nil)
		if len(replies) != 1 || replies[0].To != fuzzSelf {
			t.Fatalf("HandleRequest sent %v, want one reply to the initiator", replies)
		}
		reply := replies[0].Msg.(proto.ViewReply).Entries
		sameEntries(t, "reply", reply, wantReply)
		sameEntries(t, "partner view", vb.Entries(), wantB.Entries())

		wantA.MergeUsing(wantReply, fuzzSelf, new(view.MergeScratch))
		a.HandleReply(fuzzPartner, proto.ViewReply{Entries: reply})
		sameEntries(t, "initiator view", va.Entries(), wantA.Entries())
		for _, v := range []*view.View{va, vb} {
			if err := v.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
