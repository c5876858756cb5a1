package serving

import (
	"math"
	"sort"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/view"
)

// evidence is everything one answer is built from: the answering
// node's own state, the anchors and candidate members of its local
// estimate, and the convergence counters behind its staleness bound.
// The live querier fills it from one Status and one ViewEntries call
// per query; SimQuerier from its Refresh snapshot. sliceOf, topK and
// snapshot below are the only answer builders of the plane.
type evidence struct {
	pts []anchor // the interpolation table (see anchorsFrom)
	// The answering node's identity, attribute, rank estimate, believed
	// slice and view length.
	id             core.ID
	attr, rank     float64
	slice, viewLen int
	// members are the top-k candidates; placeholders and id are skipped.
	members []view.Entry
	// The convergence counters the staleness bound is computed from.
	ticks, samples, recvGap int
}

// staleness derives the bound of an answer at rank whose distance to
// the nearest slice boundary is boundaryDist, running both health
// detectors: the warmup grace inside Calibration.staleness and the
// receive-starvation detector on top.
func (ev *evidence) staleness(cal Calibration, rank, boundaryDist float64) Staleness {
	return cal.starve(cal.staleness(ev.ticks, ev.samples, len(ev.pts), rank, boundaryDist), ev.recvGap)
}

// badAttr reports a query attribute SliceOf rejects with ErrBadAttr.
func badAttr(attr float64) bool { return math.IsNaN(attr) || math.IsInf(attr, 0) }

// badFrac reports a top-k fraction TopK rejects with ErrBadFrac.
func badFrac(frac float64) bool { return math.IsNaN(frac) || frac <= 0 || frac > 1 }

// sliceOf answers "which slice is attr in?" from ev.
func sliceOf(ev *evidence, part core.Partition, cal Calibration, attr float64) (SliceAnswer, error) {
	if len(ev.pts) == 0 {
		return SliceAnswer{}, ErrNoEvidence
	}
	rank := rankAt(ev.pts, attr)
	ix := part.Index(rank)
	sl := part.Slice(ix)
	return SliceAnswer{
		Attr:      attr,
		Rank:      rank,
		SliceIx:   ix,
		Low:       sl.Low,
		High:      sl.High,
		Node:      ev.id,
		Staleness: ev.staleness(cal, rank, part.BoundaryDistance(rank)),
	}, nil
}

// topK answers "who is in the top frac?" from ev: the answering node
// itself when its rank clears the cut, then every candidate that does.
func topK(ev *evidence, cal Calibration, frac float64) (TopKAnswer, error) {
	if len(ev.pts) == 0 {
		return TopKAnswer{}, ErrNoEvidence
	}
	cut := 1 - frac
	ans := TopKAnswer{
		Frac:          frac,
		AttrThreshold: attrAt(ev.pts, cut),
		SelfIncluded:  ev.rank >= cut,
		Node:          ev.id,
		Staleness:     ev.staleness(cal, cut, frac),
	}
	if ans.SelfIncluded {
		ans.Members = append(ans.Members, TopKMember{ID: ev.id, Attr: ev.attr, Rank: ev.rank})
	}
	for _, e := range ev.members {
		if e.Placeholder() || e.R < cut || e.ID == ev.id {
			continue
		}
		ans.Members = append(ans.Members, TopKMember{ID: e.ID, Attr: float64(e.Attr), Rank: e.R})
	}
	sortMembers(ans.Members)
	return ans, nil
}

// snapshot reports the answering node's own state from ev.
func snapshot(ev *evidence, part core.Partition, cal Calibration) (Snapshot, error) {
	if len(ev.pts) == 0 {
		return Snapshot{}, ErrNoEvidence
	}
	sl := part.Slice(ev.slice)
	return Snapshot{
		Node:      ev.id,
		Attr:      ev.attr,
		Rank:      ev.rank,
		SliceIx:   ev.slice,
		Low:       sl.Low,
		High:      sl.High,
		ViewLen:   ev.viewLen,
		Staleness: ev.staleness(cal, ev.rank, part.BoundaryDistance(ev.rank)),
	}, nil
}

// anchor is one (attribute, normalized-rank) point of the local rank
// interpolation: a view entry's attribute and coordinate, or the node's
// own attribute and estimate.
type anchor struct {
	attr float64
	rank float64
}

// anchorsFrom builds the interpolation table from a node's view plus
// its own (attr, rank) point: sorted by attribute, deduplicated, with
// the rank column forced monotone. Placeholder entries (identity-only
// bootstrap contacts) carry no attribute evidence and are skipped.
//
// Monotonicity matters: before convergence a view's coordinates need
// not be ordered like its attributes (that disorder is exactly what the
// protocols are busy removing), but the map attribute→rank being
// estimated IS monotone by definition. Running a cumulative max over
// the sorted anchors projects the noisy sample onto the monotone family
// — the same trick isotonic regression uses — so a query between two
// misordered neighbors cannot produce a rank inversion.
func anchorsFrom(entries []view.Entry, selfAttr, selfRank float64) []anchor {
	pts := make([]anchor, 0, len(entries)+1)
	pts = append(pts, anchor{attr: selfAttr, rank: clamp01(selfRank)})
	for _, e := range entries {
		if e.Placeholder() {
			continue
		}
		pts = append(pts, anchor{attr: float64(e.Attr), rank: clamp01(e.R)})
	}
	return monotonize(pts)
}

// monotonize sorts anchors by attribute, dedupes equal attributes (keep
// the max rank — the monotone pass would force it anyway), and enforces
// monotone ranks in place.
func monotonize(pts []anchor) []anchor {
	sort.Slice(pts, func(i, j int) bool { return pts[i].attr < pts[j].attr })
	out := pts[:0]
	for _, p := range pts {
		if len(out) > 0 && out[len(out)-1].attr == p.attr {
			if p.rank > out[len(out)-1].rank {
				out[len(out)-1].rank = p.rank
			}
			continue
		}
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		if out[i].rank < out[i-1].rank {
			out[i].rank = out[i-1].rank
		}
	}
	return out
}

// sortMembers orders top-k members best rank first (ID breaks ties).
func sortMembers(ms []TopKMember) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Rank != ms[j].Rank {
			return ms[i].Rank > ms[j].Rank
		}
		return ms[i].ID < ms[j].ID
	})
}

// rankAt estimates the normalized rank of attribute x by piecewise
// linear interpolation over the anchors. Outside the anchored range the
// estimate extrapolates toward the domain ends: below the smallest
// anchor the rank falls linearly to 0 over one anchor spacing, above
// the largest it rises toward 1 symmetrically — a queried attribute far
// below everything the node has seen should read "bottom slice", not
// "wherever my weakest neighbor sits".
func rankAt(pts []anchor, x float64) float64 {
	n := len(pts)
	if n == 0 {
		return 0
	}
	if n == 1 {
		switch {
		case x < pts[0].attr:
			return clamp01(pts[0].rank / 2)
		case x > pts[0].attr:
			return clamp01((1 + pts[0].rank) / 2)
		default:
			return pts[0].rank
		}
	}
	span := (pts[n-1].attr - pts[0].attr) / float64(n-1) // mean anchor spacing
	if x <= pts[0].attr {
		if span <= 0 {
			return pts[0].rank
		}
		t := (pts[0].attr - x) / span
		if t > 1 {
			t = 1
		}
		return clamp01(pts[0].rank * (1 - t))
	}
	if x >= pts[n-1].attr {
		if span <= 0 {
			return pts[n-1].rank
		}
		t := (x - pts[n-1].attr) / span
		if t > 1 {
			t = 1
		}
		return clamp01(pts[n-1].rank + (1-pts[n-1].rank)*t)
	}
	// Binary search for the bracketing pair.
	i := sort.Search(n, func(i int) bool { return pts[i].attr >= x })
	lo, hi := pts[i-1], pts[i]
	if hi.attr == lo.attr {
		return hi.rank
	}
	t := (x - lo.attr) / (hi.attr - lo.attr)
	return clamp01(lo.rank + t*(hi.rank-lo.rank))
}

// attrAt inverts rankAt: the estimated attribute value at normalized
// rank r. Between anchors it interpolates linearly; beyond them it
// clamps to the extreme anchored attributes (a node cannot extrapolate
// attribute magnitudes it has never observed).
func attrAt(pts []anchor, r float64) float64 {
	n := len(pts)
	if n == 0 {
		return math.NaN()
	}
	if r <= pts[0].rank {
		return pts[0].attr
	}
	if r >= pts[n-1].rank {
		return pts[n-1].attr
	}
	i := sort.Search(n, func(i int) bool { return pts[i].rank >= r })
	lo, hi := pts[i-1], pts[i]
	if hi.rank == lo.rank {
		return hi.attr
	}
	t := (r - lo.rank) / (hi.rank - lo.rank)
	return lo.attr + t*(hi.attr-lo.attr)
}

func clamp01(v float64) float64 {
	switch {
	case math.IsNaN(v), v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}
