package view

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
)

// benchView fills a c-capacity view with c distinct members whose ages
// follow the gossip steady state (small, geometric-ish).
func benchView(rng *rand.Rand, c int, idBase uint64) *View {
	v := MustNew(c)
	for i := 0; i < c; i++ {
		v.Add(Entry{
			ID:   core.ID(idBase + uint64(i)*2 + 1),
			Attr: core.Attr(rng.Float64()),
			R:    rng.Float64(),
			Age:  uint32(rng.Intn(6)),
		})
	}
	return v
}

// benchIncoming builds a gossip payload of c+1 entries. overlap picks
// how many IDs collide with the resident set [idBase...]: the converged
// regime (neighborhoods have settled, payloads mostly duplicate the
// view) versus the unconverged one (views barely overlap, nearly every
// entry is fresh and the trim must evict in bulk).
func benchIncoming(rng *rand.Rand, v *View, c, overlap int) []Entry {
	in := make([]Entry, 0, c+1)
	res := v.Entries()
	for i := 0; i < overlap && i < len(res); i++ {
		e := res[i]
		e.Age = uint32(rng.Intn(6))
		in = append(in, e)
	}
	for i := len(in); i <= c; i++ {
		in = append(in, Entry{
			ID:   core.ID(1_000_000 + uint64(i)*2 + 1),
			Attr: core.Attr(rng.Float64()),
			R:    rng.Float64(),
			Age:  uint32(rng.Intn(6)),
		})
	}
	return in
}

// BenchmarkMergeDedup measures MergeCompact's classify half: the Bloom
// signature plus the entry-array duplicate scan over one gossip payload.
// converged payloads are duplicate-heavy (the signature pays for itself
// by gating findID), unconverged ones are all-fresh (the signature
// short-circuits nearly every probe). The view is restored from a
// snapshot each iteration so successive merges see identical input.
func BenchmarkMergeDedup(b *testing.B) {
	for _, c := range []int{20, 40} {
		for _, conv := range []bool{false, true} {
			label, overlap := "unconverged", 0
			if conv {
				label, overlap = "converged", c-2
			}
			rng := rand.New(rand.NewSource(int64(c)))
			v := benchView(rng, c, 1)
			incoming := benchIncoming(rng, v, c, overlap)
			snapEnt := append([]Entry(nil), v.Raw()...)
			var scr MergeScratch
			self := core.ID(999_999)
			b.Run(fmt.Sprintf("c=%d/%s", c, label), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.Reset(snapEnt)
					v.MergeCompact(incoming, self, &scr)
				}
			})
		}
	}
}

// BenchmarkViewTrim measures the merge's trim half in isolation: the
// fused age histogram, threshold selection, and branch-free survivor
// compaction. unconverged is the production-dominant shape (a full
// payload of fresh entries forces ~c evictions); converged payloads
// mostly dedup away, so the trim sees a small union and exits cheap.
func BenchmarkViewTrim(b *testing.B) {
	for _, c := range []int{20, 40} {
		for _, conv := range []bool{false, true} {
			label, overlap := "unconverged", 0
			if conv {
				label, overlap = "converged", c-2
			}
			rng := rand.New(rand.NewSource(int64(c) + 99))
			v := benchView(rng, c, 1)
			// Reply-shaped payload: the initiator's absorb half, where the
			// union exceeds capacity by ~c and the threshold walk plus
			// compaction dominate.
			incoming := benchIncoming(rng, v, c, overlap)
			snapEnt := append([]Entry(nil), v.Raw()...)
			var scr MergeScratch
			reply := make([]Entry, c+1)
			self := core.ID(999_999)
			b.Run(fmt.Sprintf("c=%d/%s", c, label), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.Reset(snapEnt)
					v.MergeReply(incoming, self, &scr, reply)
				}
			})
		}
	}
}
