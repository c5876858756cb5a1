// Package ranking implements the dynamic ranking protocol of §5 of the
// paper: instead of sorting pre-drawn random values, each node
// statistically estimates its own normalized rank as the fraction of
// observed attribute values lower than its own, and reads its slice off
// the estimate.
//
// Each period a node scans its (gossip-maintained) view, feeding every
// neighbor's attribute into its estimator, then sends its own attribute
// to two targets: the neighbor whose rank estimate sits closest to a
// slice boundary (such nodes need the most samples, Theorem 5.1) and a
// uniformly random neighbor. Updates are one-way; every received
// attribute value is always useful, which is why concurrency does not
// produce wasted messages here (§5, "Concurrency side-effect").
package ranking

import (
	"fmt"
	"sync"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

// Node is a ranking protocol instance bound to one network node: the
// live runtime's wrapper around the ranking kernels (Self), which it
// hands its own fields per call. It implements proto.Node. The cycle
// engine stores no Nodes; it keeps each fact in a per-slot column.
type Node struct {
	id   core.ID
	attr core.Attr
	part core.Partition
	est  Estimator
	v    *view.View

	// updMsg is the node's UPD message, boxed once: the attribute value
	// it carries never changes (§3.1 assumes static attributes).
	updMsg proto.Message
}

// scratchPool lends Tick its buffer. A Node embeds none: a live node
// should retain nothing between periods (the cycle engine passes
// per-worker Scratch to Self.TickTargetsFast).
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Scratch holds the reusable tick buffer — the filtered view snapshot.
// Callers that drive many nodes from one goroutine (the cycle engine's
// workers) share one Scratch across all of them.
type Scratch struct {
	entries []view.Entry
}

var _ proto.Node = (*Node)(nil)

// Config parameterizes a ranking node.
type Config struct {
	ID        core.ID
	Attr      core.Attr
	Partition core.Partition
	// Estimator accumulates observations; NewCounter() gives the
	// protocol of Fig. 5, MustNewWindow(W) the §5.3.4 variant.
	Estimator Estimator
	View      *view.View
}

// Self is one node as the ranking kernels see it: its identity and
// attribute, its estimator and its view. Neither engine stores one. The
// live Node builds it from its own fields per call; the cycle engine
// builds it from its per-slot columns, which hold each of these facts
// once.
type Self struct {
	ID   core.ID
	Attr core.Attr
	Est  Estimator
	View *view.View
}

// NewNode builds a ranking node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.View == nil {
		return nil, fmt.Errorf("ranking: config needs a view")
	}
	if cfg.Estimator == nil {
		return nil, fmt.Errorf("ranking: config needs an estimator")
	}
	return &Node{
		id:     cfg.ID,
		attr:   cfg.Attr,
		part:   cfg.Partition,
		est:    cfg.Estimator,
		v:      cfg.View,
		updMsg: proto.RankUpdate{Attr: cfg.Attr},
	}, nil
}

// self is the node as the kernels see it.
func (n *Node) self() Self { return Self{ID: n.id, Attr: n.attr, Est: n.est, View: n.v} }

// ID implements proto.Node.
func (n *Node) ID() core.ID { return n.id }

// Member implements proto.Node.
func (n *Node) Member() core.Member { return core.Member{ID: n.id, Attr: n.attr} }

// Estimate implements proto.Node: the current rank estimate ℓ/g.
func (n *Node) Estimate() float64 { return n.est.Estimate() }

// SetAttr force-sets the node's attribute and reboxes the UPD message
// to carry it. The fault plane uses it for attribute drift and
// byzantine impersonation; because Observe compares every incoming
// sample against the CURRENT attribute, fresh observations converge
// the estimate toward the new attribute's rank (the sliding-window
// estimator forgets the stale comparisons, the counter estimator only
// dilutes them).
func (n *Node) SetAttr(a core.Attr) {
	n.attr = a
	n.updMsg = proto.RankUpdate{Attr: a}
}

// SliceIndex implements proto.Node (Fig. 5 lines 16, 21).
func (n *Node) SliceIndex() int { return n.part.Index(n.est.Estimate()) }

// SelfEntry implements proto.Node.
func (n *Node) SelfEntry() view.Entry {
	return view.Entry{ID: n.id, Age: 0, Attr: n.attr, R: n.est.Estimate()}
}

// View exposes the node's view (shared with its membership protocol).
func (n *Node) View() *view.View { return n.v }

// Samples returns the number of observations incorporated so far.
func (n *Node) Samples() int { return n.est.Samples() }

// lower reports whether the observed member precedes this node in the
// attribute-based total order. The paper's pseudocode tests a_j ≤ a_i;
// we use the total order (ties broken by identifier, §3.1) so that
// duplicate attribute values still yield consistent rank estimates.
func (n *Self) lower(m core.Member) bool {
	return core.Less(m, core.Member{ID: n.ID, Attr: n.Attr})
}

// Tick implements proto.Node: one active-thread period (Fig. 5 lines
// 4-16). The view has been recomputed by the membership layer. A live
// node knows its neighbors' estimates only through its view, so it
// ticks on an empty table: every neighbor resolves to its recorded
// entry. The returned envelopes carry UPD messages for the
// boundary-closest neighbor j1 and a random neighbor j2.
func (n *Node) Tick(rng core.RNG) []proto.Envelope {
	scr := scratchPool.Get().(*Scratch)
	self := n.self()
	j1, j2, ok := self.TickTargetsFast(n.part, nil, rng, scr)
	scratchPool.Put(scr)
	if !ok {
		return nil
	}
	return []proto.Envelope{{To: j1, Msg: n.updMsg}, {To: j2, Msg: n.updMsg}}
}

// TickTargets is the node's reference tick; see Self.TickTargets.
func (n *Node) TickTargets(state proto.StateReader, rng core.RNG, scr *Scratch) (core.ID, core.ID, bool) {
	self := n.self()
	return self.TickTargets(n.part, state, rng, scr)
}

// TickTargets is the reference ranking tick: TickTargetsFast with
// neighbor estimates resolved through a StateReader. It feeds the view
// scan into the estimator and returns the two UPD targets (j1 may equal
// j2) by value, drawing tick scratch from scr. Both updates carry the
// node's current attribute.
func (n *Self) TickTargets(part core.Partition, state proto.StateReader, rng core.RNG, scr *Scratch) (core.ID, core.ID, bool) {
	// Placeholder entries are contact addresses, not attribute samples;
	// they are neither observed nor targeted. The filter reads the view's
	// backing slice directly (no snapshot copy): nothing below mutates
	// the view.
	entries := scr.entries[:0]
	for _, e := range n.View.Raw() {
		if !e.Placeholder() {
			entries = append(entries, e)
		}
	}
	scr.entries = entries
	for _, e := range entries {
		n.Est.Observe(n.lower(e.Member()))
	}
	if len(entries) == 0 {
		return 0, 0, false
	}
	// j1: the neighbor whose rank estimate is closest to its nearest
	// slice boundary (Fig. 5 lines 8-10). Estimates resolve through the
	// state reader, falling back to the view's recorded estimates.
	j1 := entries[0]
	best := boundaryDistance(part, state, entries[0])
	for _, e := range entries[1:] {
		if d := boundaryDistance(part, state, e); d < best {
			best, j1 = d, e
		}
	}
	// j2: a uniformly random neighbor (Fig. 5 line 12).
	j2 := entries[rng.Intn(len(entries))]
	return j1.ID, j2.ID, true
}

// TickTargetsFast is the node's tick; see Self.TickTargetsFast.
func (n *Node) TickTargetsFast(coords proto.CoordTable, rng core.RNG, scr *Scratch) (core.ID, core.ID, bool) {
	self := n.self()
	return self.TickTargetsFast(n.part, coords, rng, scr)
}

// TickTargetsFast is the ranking tick both engines run: neighbor
// estimates resolve through a concrete CoordTable — one load and one
// NaN test per neighbor instead of an interface dispatch — with the
// view's recorded estimate as fallback for IDs the table does not know.
// The cycle engine passes its phase-start snapshot; a live node passes
// nil. Decision and side-effect equivalence with TickTargets over a
// reader that answers as the table does is exact: the RNG draws happen
// in the same order, and the estimator feeding is identical (pinned by
// TestTickTargetsFastMatchesTickTargets).
func (n *Self) TickTargetsFast(part core.Partition, coords proto.CoordTable, rng core.RNG, scr *Scratch) (core.ID, core.ID, bool) {
	entries := scr.entries[:0]
	for _, e := range n.View.Raw() {
		if !e.Placeholder() {
			entries = append(entries, e)
		}
	}
	scr.entries = entries
	for _, e := range entries {
		n.Est.Observe(n.lower(e.Member()))
	}
	if len(entries) == 0 {
		return 0, 0, false
	}
	j1 := entries[0]
	best := boundaryDistanceTab(part, coords, entries[0])
	for _, e := range entries[1:] {
		if d := boundaryDistanceTab(part, coords, e); d < best {
			best, j1 = d, e
		}
	}
	j2 := entries[rng.Intn(len(entries))]
	return j1.ID, j2.ID, true
}

func boundaryDistanceTab(part core.Partition, coords proto.CoordTable, e view.Entry) float64 {
	r := e.R
	if live, ok := coords.Coord(e.ID); ok {
		r = live
	}
	return part.BoundaryDistance(r)
}

func boundaryDistance(part core.Partition, state proto.StateReader, e view.Entry) float64 {
	r := e.R
	if live, ok := state.R(e.ID); ok {
		r = live
	}
	return part.BoundaryDistance(r)
}

// Handle implements proto.Node: the passive thread of Fig. 5 (lines
// 17-21). Updates are one-way; no reply is produced.
func (n *Node) Handle(from core.ID, msg proto.Message, _ core.RNG) []proto.Envelope {
	upd, ok := msg.(proto.RankUpdate)
	if !ok {
		// Not a ranking message (e.g. a stray SwapRequest); ignore.
		return nil
	}
	n.ApplyRankUpdate(from, upd.Attr)
	return nil
}

// ApplyRankUpdate is the node's passive thread without the message
// unboxing; see Self.ApplyRankUpdate.
func (n *Node) ApplyRankUpdate(from core.ID, attr core.Attr) {
	self := n.self()
	self.ApplyRankUpdate(from, attr)
}

// ApplyRankUpdate absorbs one UPD observation carrying the sender's
// attribute.
func (n *Self) ApplyRankUpdate(from core.ID, attr core.Attr) {
	n.Est.Observe(n.lower(core.Member{ID: from, Attr: attr}))
}
