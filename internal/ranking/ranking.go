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

// Node is a ranking protocol instance bound to one network node. It
// implements proto.Node.
type Node struct {
	id    core.ID
	attr  core.Attr
	part  core.Partition
	est   Estimator
	v     *view.View
	stats Stats
	// scanView controls whether Tick feeds the view's attribute values
	// into the estimator (Fig. 5 lines 5-7). The paper does; disabling
	// it (messages only) is an ablation.
	scanView bool
	// boundaryBias controls whether j1 targets the neighbor closest to
	// a slice boundary (Fig. 5 lines 8-10). The paper does; disabling
	// it (two random targets) is an ablation.
	boundaryBias bool

	// updMsg is the node's UPD message, boxed once: the attribute value
	// it carries never changes (§3.1 assumes static attributes).
	updMsg proto.Message
}

// scratchPool lends Tick its buffer. A Node embeds none: the cycle
// engine stores them by value and passes per-worker Scratch to
// TickTargetsFast, and a live node should retain nothing between periods.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Scratch holds the reusable tick buffer — the filtered view snapshot.
// Callers that drive many nodes from one goroutine (the cycle engine's
// workers) share one Scratch across all of them.
type Scratch struct {
	entries []view.Entry
}

// Stats counts protocol events.
type Stats struct {
	// UpdatesSent counts UPD messages sent.
	UpdatesSent uint64
	// UpdatesReceived counts UPD messages received.
	UpdatesReceived uint64
	// ViewObservations counts attribute values fed from view scans.
	ViewObservations uint64
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
	// DisableViewScan turns off the per-period estimator feeding from
	// the view (ablation; the paper's algorithm keeps it on).
	DisableViewScan bool
	// DisableBoundaryBias makes both UPD targets uniformly random
	// (ablation; the paper biases j1 toward boundary-adjacent nodes).
	DisableBoundaryBias bool
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
		id:           cfg.ID,
		attr:         cfg.Attr,
		part:         cfg.Partition,
		est:          cfg.Estimator,
		v:            cfg.View,
		scanView:     !cfg.DisableViewScan,
		boundaryBias: !cfg.DisableBoundaryBias,
		updMsg:       proto.RankUpdate{Attr: cfg.Attr},
	}, nil
}

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
func (n *Node) lower(m core.Member) bool {
	return core.Less(m, n.Member())
}

// Tick implements proto.Node: one active-thread period (Fig. 5 lines
// 4-16). The view has been recomputed by the membership layer. A live
// node knows its neighbors' estimates only through its view, so it
// ticks on an empty table: every neighbor resolves to its recorded
// entry. The returned envelopes carry UPD messages for the
// boundary-closest neighbor j1 and a random neighbor j2.
func (n *Node) Tick(rng core.RNG) []proto.Envelope {
	scr := scratchPool.Get().(*Scratch)
	j1, j2, ok := n.TickTargetsFast(nil, rng, scr)
	scratchPool.Put(scr)
	if !ok {
		return nil
	}
	return []proto.Envelope{{To: j1, Msg: n.updMsg}, {To: j2, Msg: n.updMsg}}
}

// TickTargets is the reference ranking tick: TickTargetsFast with
// neighbor estimates resolved through a StateReader. It feeds the view
// scan into the estimator and returns the two UPD targets (j1 may equal
// j2) by value, drawing tick scratch from scr. Both updates carry the
// node's current attribute — read it with Member().Attr at delivery.
func (n *Node) TickTargets(state proto.StateReader, rng core.RNG, scr *Scratch) (core.ID, core.ID, bool) {
	// Placeholder entries are contact addresses, not attribute samples;
	// they are neither observed nor targeted. The filter reads the view's
	// backing slice directly (no snapshot copy): nothing below mutates
	// the view.
	entries := scr.entries[:0]
	for _, e := range n.v.Raw() {
		if !e.Placeholder() {
			entries = append(entries, e)
		}
	}
	scr.entries = entries
	if n.scanView {
		for _, e := range entries {
			n.est.Observe(n.lower(e.Member()))
			n.stats.ViewObservations++
		}
	}
	if len(entries) == 0 {
		return 0, 0, false
	}
	// j1: the neighbor whose rank estimate is closest to its nearest
	// slice boundary (Fig. 5 lines 8-10). Estimates resolve through the
	// state reader, falling back to the view's recorded estimates.
	j1 := entries[0]
	if n.boundaryBias {
		best := n.boundaryDistance(state, entries[0])
		for _, e := range entries[1:] {
			if d := n.boundaryDistance(state, e); d < best {
				best, j1 = d, e
			}
		}
	} else {
		j1 = entries[rng.Intn(len(entries))]
	}
	n.stats.UpdatesSent++
	// j2: a uniformly random neighbor (Fig. 5 line 12).
	j2 := entries[rng.Intn(len(entries))]
	n.stats.UpdatesSent++
	return j1.ID, j2.ID, true
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
func (n *Node) TickTargetsFast(coords proto.CoordTable, rng core.RNG, scr *Scratch) (core.ID, core.ID, bool) {
	entries := scr.entries[:0]
	for _, e := range n.v.Raw() {
		if !e.Placeholder() {
			entries = append(entries, e)
		}
	}
	scr.entries = entries
	if n.scanView {
		for _, e := range entries {
			n.est.Observe(n.lower(e.Member()))
			n.stats.ViewObservations++
		}
	}
	if len(entries) == 0 {
		return 0, 0, false
	}
	j1 := entries[0]
	if n.boundaryBias {
		best := n.boundaryDistanceTab(coords, entries[0])
		for _, e := range entries[1:] {
			if d := n.boundaryDistanceTab(coords, e); d < best {
				best, j1 = d, e
			}
		}
	} else {
		j1 = entries[rng.Intn(len(entries))]
	}
	n.stats.UpdatesSent++
	j2 := entries[rng.Intn(len(entries))]
	n.stats.UpdatesSent++
	return j1.ID, j2.ID, true
}

func (n *Node) boundaryDistanceTab(coords proto.CoordTable, e view.Entry) float64 {
	r := e.R
	if live, ok := coords.Coord(e.ID); ok {
		r = live
	}
	return n.part.BoundaryDistance(r)
}

func (n *Node) boundaryDistance(state proto.StateReader, e view.Entry) float64 {
	r := e.R
	if live, ok := state.R(e.ID); ok {
		r = live
	}
	return n.part.BoundaryDistance(r)
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

// ApplyRankUpdate is the passive thread without the message unboxing:
// absorb one UPD observation carrying the sender's attribute.
func (n *Node) ApplyRankUpdate(from core.ID, attr core.Attr) {
	n.stats.UpdatesReceived++
	n.est.Observe(n.lower(core.Member{ID: from, Attr: attr}))
}
