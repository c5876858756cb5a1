// Package membership implements the peer-sampling substrate the slicing
// protocols gossip over: the Cyclon variant of §4.3.2/Fig. 3 of the
// paper (full-view exchange with the oldest neighbor), a Newscast-like
// protocol (freshest-wins exchange with a random neighbor, the substrate
// of the original JK paper). The uniform oracle of §5.3.2 (the
// ground-truth sampler of Fig. 6(b)) needs global knowledge and exists
// only inside the simulator (sim.UniformOracle).
package membership

import (
	"sync"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

// Protocol is a view-management state machine. Like the slicing
// protocols it communicates through envelopes; the simulator completes a
// whole exchange within a cycle (the paper updates views before every
// slicing step), the runtime lets exchanges float.
type Protocol interface {
	// Tick starts one gossip period, returning the request to send (if
	// any).
	Tick(rng core.RNG) []proto.Envelope
	// HandleRequest processes an incoming view request and returns the
	// reply.
	HandleRequest(from core.ID, req proto.ViewRequest, rng core.RNG) []proto.Envelope
	// HandleReply processes the view received in response to Tick.
	HandleReply(from core.ID, rep proto.ViewReply)
	// View exposes the protocol's current view. The slicing protocol
	// layered on top reads (and shares) this view.
	View() *view.View
	// OnTimeout tells the protocol that its last exchange with the given
	// node received no reply (the node crashed or departed, §3.3). The
	// stale entry is dropped so the node is not targeted forever.
	OnTimeout(target core.ID)
	// Name identifies the protocol in logs and experiment output.
	Name() string
}

// SelfEntryFunc produces a fresh view entry describing the local node
// (age 0, current attribute and rank coordinate). The slicing protocol
// supplies it so that gossip always advertises up-to-date coordinates.
type SelfEntryFunc func() view.Entry

// mergePool lends the envelope path its merge scratch: the fused
// kernel's classification buffers and the scratch merges' over-filled
// intermediate set live there, so a node's view storage never grows past
// capacity and a node retains no scratch of its own.
var mergePool = sync.Pool{New: func() any { return new(view.MergeScratch) }}

// Cyclon is the variant of the Cyclon protocol described in §4.3.2 and
// Fig. 3: each period the node ages its view, selects its oldest
// neighbor j, and sends its whole view (minus j's entry, plus a fresh
// self entry); j replies with its whole view (minus entries describing
// the initiator); both sides merge keeping their own version of
// duplicated entries. Unlike original Cyclon, all entries are exchanged
// at each step. Both merges run the simulator's fused kernel
// (view.MergeCompact) whenever the received batch is ID-unique, as every
// honest peer's is; a batch that repeats an ID takes the scratch merge,
// which tolerates it.
type Cyclon struct {
	self      core.ID
	selfEntry SelfEntryFunc
	v         *view.View
}

var _ Protocol = (*Cyclon)(nil)

// NewCyclon builds the Cyclon-variant protocol for a node. The view is
// owned by the protocol but shared with the slicing layer.
func NewCyclon(self core.ID, selfEntry SelfEntryFunc, v *view.View) *Cyclon {
	return &Cyclon{self: self, selfEntry: selfEntry, v: v}
}

// Tick implements Protocol (Fig. 3, active thread, lines 1-3).
func (c *Cyclon) Tick(_ core.RNG) []proto.Envelope {
	oldest, ok := c.v.AgeAllOldest()
	if !ok {
		return nil
	}
	payload := c.v.AppendEntries(make([]view.Entry, 0, c.v.Len()+1))
	for i := range payload {
		if payload[i].ID == oldest.ID {
			payload = append(payload[:i], payload[i+1:]...)
			break
		}
	}
	payload = append(payload, c.selfEntry())
	return []proto.Envelope{{To: oldest.ID, Msg: proto.ViewRequest{Entries: payload}}}
}

// HandleRequest implements Protocol (Fig. 3, passive thread, lines 7-10).
func (c *Cyclon) HandleRequest(from core.ID, req proto.ViewRequest, _ core.RNG) []proto.Envelope {
	reply := c.v.AppendEntries(make([]view.Entry, 0, c.v.Len()))
	for i := range reply {
		if reply[i].ID == from {
			reply = append(reply[:i], reply[i+1:]...)
			break
		}
	}
	c.merge(req.Entries)
	return []proto.Envelope{{To: from, Msg: proto.ViewReply{Entries: reply}}}
}

// HandleReply implements Protocol (Fig. 3, active thread, lines 4-6).
func (c *Cyclon) HandleReply(_ core.ID, rep proto.ViewReply) {
	c.merge(rep.Entries)
}

// merge absorbs a payload keeping the local version of duplicated
// entries. Both paths leave the same entries in the same order; the
// fused one is only sound on an ID-unique batch.
func (c *Cyclon) merge(entries []view.Entry) {
	scr := mergePool.Get().(*view.MergeScratch)
	if view.UniqueIDs(entries) {
		c.v.MergeCompact(entries, c.self, scr)
	} else {
		c.v.MergeUsing(entries, c.self, scr)
	}
	mergePool.Put(scr)
}

// View implements Protocol.
func (c *Cyclon) View() *view.View { return c.v }

// OnTimeout implements Protocol: the unresponsive neighbor is dropped.
func (c *Cyclon) OnTimeout(target core.ID) { c.v.Remove(target) }

// Name implements Protocol.
func (c *Cyclon) Name() string { return "cyclon" }

// Newscast is a Newscast-like protocol: each period the node exchanges
// its full view with a uniformly random neighbor; both sides keep the
// freshest entry per ID and trim to the freshest capacity entries. The
// original JK algorithm runs on a variant of Newscast.
type Newscast struct {
	self      core.ID
	selfEntry SelfEntryFunc
	v         *view.View
}

var _ Protocol = (*Newscast)(nil)

// NewNewscast builds the Newscast-like protocol for a node.
func NewNewscast(self core.ID, selfEntry SelfEntryFunc, v *view.View) *Newscast {
	return &Newscast{self: self, selfEntry: selfEntry, v: v}
}

// Tick implements Protocol.
func (n *Newscast) Tick(rng core.RNG) []proto.Envelope {
	n.v.AgeAll()
	target, ok := n.v.Random(rng)
	if !ok {
		return nil
	}
	payload := append(n.v.AppendEntries(make([]view.Entry, 0, n.v.Len()+1)), n.selfEntry())
	return []proto.Envelope{{To: target.ID, Msg: proto.ViewRequest{Entries: payload}}}
}

// HandleRequest implements Protocol.
func (n *Newscast) HandleRequest(from core.ID, req proto.ViewRequest, _ core.RNG) []proto.Envelope {
	reply := append(n.v.AppendEntries(make([]view.Entry, 0, n.v.Len()+1)), n.selfEntry())
	n.merge(req.Entries)
	return []proto.Envelope{{To: from, Msg: proto.ViewReply{Entries: reply}}}
}

// HandleReply implements Protocol.
func (n *Newscast) HandleReply(_ core.ID, rep proto.ViewReply) {
	n.merge(rep.Entries)
}

// merge absorbs a payload keeping the freshest version of duplicated
// entries.
func (n *Newscast) merge(entries []view.Entry) {
	scr := mergePool.Get().(*view.MergeScratch)
	n.v.MergeFreshUsing(entries, n.self, scr)
	mergePool.Put(scr)
}

// View implements Protocol.
func (n *Newscast) View() *view.View { return n.v }

// OnTimeout implements Protocol: the unresponsive neighbor is dropped.
func (n *Newscast) OnTimeout(target core.ID) { n.v.Remove(target) }

// Name implements Protocol.
func (n *Newscast) Name() string { return "newscast" }
