// Package proto defines the wire-level contract shared by every gossip
// protocol in the library: the message types exchanged by the membership
// and slicing protocols, the envelope used to address them, and the
// state-machine interfaces the simulator and the live runtime both
// execute.
//
// Protocol implementations are transport-agnostic: an active thread step
// (Tick) and a passive thread step (Handle) return envelopes instead of
// performing I/O. The cycle simulator delivers envelopes synchronously
// inside a cycle (the paper's PeerSim model); the runtime delivers them
// over a Transport with real concurrency.
package proto

import (
	"fmt"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/view"
)

// Envelope is an addressed message.
type Envelope struct {
	To  core.ID
	Msg Message
}

// Message is implemented by every protocol message. The marker method
// keeps the set of wire types closed so the codec can enumerate them.
type Message interface {
	message()
}

// ViewRequest starts a view exchange (REQ′ in Fig. 3): the initiator's
// view minus the target's entry, plus a fresh self entry.
type ViewRequest struct {
	Entries []view.Entry
}

// ViewReply answers a ViewRequest (ACK′ in Fig. 3) with the responder's
// view minus entries describing the initiator.
type ViewReply struct {
	Entries []view.Entry
}

// SwapRequest starts a random-value exchange (REQ in Fig. 2): the
// initiator's random value and attribute value.
type SwapRequest struct {
	R    float64
	Attr core.Attr
}

// SwapReply answers a SwapRequest (ACK in Fig. 2) with the responder's
// random value as it was before applying the swap predicate.
type SwapReply struct {
	R float64
}

// RankUpdate carries an attribute value to feed a ranking node's
// estimator (UPD in Fig. 5). Communication is one-way: updates are not
// acknowledged.
type RankUpdate struct {
	Attr core.Attr
}

// MessageCounts tallies delivered protocol messages by type, plus
// messages dropped on the way: both engines report traffic in this one
// shape.
type MessageCounts struct {
	ViewRequests uint64
	ViewReplies  uint64
	SwapRequests uint64
	SwapReplies  uint64
	RankUpdates  uint64
	Dropped      uint64
}

// Total returns all delivered messages.
func (m MessageCounts) Total() uint64 {
	return m.ViewRequests + m.ViewReplies + m.SwapRequests + m.SwapReplies + m.RankUpdates
}

func (ViewRequest) message() {}
func (ViewReply) message()   {}
func (SwapRequest) message() {}
func (SwapReply) message()   {}
func (RankUpdate) message()  {}

// StateReader resolves the current normalized-rank coordinate of a node:
// its random value under the ordering protocols, its rank estimate under
// ranking. It is the resolver of the reference ticks
// (ordering.Node.TickSwap, ranking.Node.TickTargets), which the kernel
// tests and benchmarks check the fast ticks against; neither engine
// ticks through it.
type StateReader interface {
	// R returns the coordinate for id and whether it is known.
	R(id core.ID) (float64, bool)
}

// MapReader is a StateReader backed by a plain map.
type MapReader map[core.ID]float64

// R implements StateReader.
func (m MapReader) R(id core.ID) (float64, bool) {
	v, ok := m[id]
	return v, ok
}

// FuncReader adapts a function, such as CoordTable.Coord, to
// StateReader.
type FuncReader func(core.ID) (float64, bool)

// R implements StateReader.
func (f FuncReader) R(id core.ID) (float64, bool) { return f(id) }

// CoordTable is the coordinate table the fast ticks resolve neighbors
// through: a coordinate snapshot indexed directly by node ID, with NaN
// marking departed or never-assigned IDs. The cycle engine passes its
// phase-start snapshot; a live node passes nil, the empty table, which
// leaves every neighbor at the coordinate its view entry records. The
// per-neighbor resolve is one load and one NaN test instead of an
// interface dispatch plus an ID→slot→coordinate double indirection —
// half the cache misses of the hottest random access a million-node
// tick performs.
type CoordTable []float64

// Coord returns the coordinate for id and whether id is live. Unknown
// and departed IDs are reported unknown, and callers fall back to the
// coordinate recorded in their own view.
func (c CoordTable) Coord(id core.ID) (float64, bool) {
	if id < 1 || int(id) >= len(c) {
		return 0, false
	}
	r := c[id]
	return r, r == r // NaN ⇒ departed or never assigned
}

// Kind selects the slicing protocol a run or a node executes, on either
// engine.
type Kind int

// The two protocol families of the paper.
const (
	// Ordering runs JK or mod-JK (§4), depending on the policy.
	Ordering Kind = iota + 1
	// Ranking runs the rank-estimation protocol (§5).
	Ranking
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Ordering:
		return "ordering"
	case Ranking:
		return "ranking"
	default:
		return fmt.Sprintf("protocol(%d)", int(k))
	}
}

// Node is a slicing protocol state machine bound to one network node.
// Implementations: ordering.Node (JK / mod-JK) and ranking.Node.
type Node interface {
	// ID returns the node identity.
	ID() core.ID
	// Member returns the identity/attribute pair.
	Member() core.Member
	// Estimate returns the node's current normalized-rank coordinate.
	Estimate() float64
	// SliceIndex returns the slice the node currently believes it
	// belongs to.
	SliceIndex() int
	// SelfEntry returns a fresh view entry describing this node, used by
	// the membership protocol when gossiping.
	SelfEntry() view.Entry
	// Tick runs one active-thread period (after the membership exchange)
	// and returns the messages to send. A node resolves its neighbors'
	// coordinates from its own view, the only knowledge a distributed
	// node has. The live runtime passes the node's own serial generator;
	// the cycle engine skips Tick for the unboxed table ticks
	// (ordering.Self.TickTable, ranking.Self.TickTargetsFast) over its
	// phase-start snapshot. The returned slice (and Handle's) is the
	// caller's: implementations do not reuse it.
	Tick(rng core.RNG) []Envelope
	// Handle processes one incoming protocol message, returning any
	// replies.
	Handle(from core.ID, msg Message, rng core.RNG) []Envelope
}
