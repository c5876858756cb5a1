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

func (ViewRequest) message() {}
func (ViewReply) message()   {}
func (SwapRequest) message() {}
func (SwapReply) message()   {}
func (RankUpdate) message()  {}

// StateReader resolves the current normalized-rank coordinate of a node:
// its random value under the ordering protocols, its rank estimate under
// ranking. The simulator injects a live reader (modelling the paper's
// "the view is up-to-date when a message is sent") or a cycle-start
// snapshot (modelling artificial concurrency, §4.5.2); the runtime
// injects a reader backed by the node's own view, which is all a real
// distributed node can observe.
type StateReader interface {
	// R returns the coordinate for id and whether it is known.
	R(id core.ID) (float64, bool)
}

// ViewBacked returns a StateReader that resolves coordinates from a
// node's own view, with the node's own live coordinate supplied
// separately. This is the only reader available to a real distributed
// node.
func ViewBacked(self core.ID, selfR func() float64, v *view.View) StateReader {
	return viewReader{self: self, selfR: selfR, v: v}
}

type viewReader struct {
	self  core.ID
	selfR func() float64
	v     *view.View
}

func (r viewReader) R(id core.ID) (float64, bool) {
	if id == r.self {
		return r.selfR(), true
	}
	e, ok := r.v.Get(id)
	if !ok {
		return 0, false
	}
	return e.R, true
}

// MapReader is a StateReader backed by a plain map (used for snapshots).
type MapReader map[core.ID]float64

// R implements StateReader.
func (m MapReader) R(id core.ID) (float64, bool) {
	v, ok := m[id]
	return v, ok
}

// FuncReader adapts a function to StateReader (used for live reads).
type FuncReader func(core.ID) (float64, bool)

// R implements StateReader.
func (f FuncReader) R(id core.ID) (float64, bool) { return f(id) }

// CoordTable is the cycle engine's concrete coordinate table: the
// phase-start coordinate snapshot indexed directly by node ID, with NaN
// marking departed or never-assigned IDs. It carries the same answers
// as the engine's snapshot StateReader, but as a flat array: the
// per-neighbor resolve in a protocol tick becomes one load and one
// NaN test instead of an interface dispatch plus an ID→slot→coordinate
// double indirection — half the cache misses of the hottest random
// access a million-node tick performs.
type CoordTable []float64

// Coord returns the coordinate for id and whether id is live. The
// semantics mirror the engine's snapshot StateReader bit for bit:
// unknown and departed IDs are reported unknown, and callers fall back
// to the coordinate recorded in their own view.
func (c CoordTable) Coord(id core.ID) (float64, bool) {
	if id < 1 || int(id) >= len(c) {
		return 0, false
	}
	r := c[id]
	return r, r == r // NaN ⇒ departed or never assigned
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
	// and returns the messages to send. The StateReader tells the node
	// how fresh its knowledge of its neighbors' coordinates is. The RNG
	// is injected per step: the live runtime passes the node's own
	// serial generator, the cycle engine a per-(node,cycle) counter
	// stream, which is what lets it run every node's step concurrently
	// yet bit-identically at any worker count. The returned slice (and
	// Handle's) is the caller's: implementations do not reuse it.
	Tick(state StateReader, rng core.RNG) []Envelope
	// Handle processes one incoming protocol message, returning any
	// replies.
	Handle(from core.ID, msg Message, rng core.RNG) []Envelope
}
