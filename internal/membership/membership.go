// Package membership implements the peer-sampling substrate the slicing
// protocols gossip over: the Cyclon variant of §4.3.2/Fig. 3 of the
// paper (full-view exchange with the oldest neighbor), which every live
// node runs and the simulator inlines over its view arena. The uniform
// oracle of §5.3.2 (the ground-truth sampler of Fig. 6(b)) needs global
// knowledge and exists only inside the simulator (sim.UniformOracle).
//
// Newscast, the substrate of the original JK paper, is kept only for
// the benchmark's membership.newscast_exchange_ns kernel row; no engine,
// spec or facade value selects it, and it goes with that row.
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
//
// A view payload changes hands with its message: the sender never
// touches a request or reply it returned again, and a delivered payload
// belongs to its receiver, which may overwrite it or recycle its
// backing array. A transport that delivers one message twice must
// therefore hand each delivery its own copy of the entries.
type Protocol interface {
	// Tick starts one gossip period, returning the request to send (if
	// any).
	Tick(rng core.RNG) []proto.Envelope
	// HandleRequest processes an incoming view request and returns the
	// reply. The reply may be written into the request's backing array.
	HandleRequest(from core.ID, req proto.ViewRequest, rng core.RNG) []proto.Envelope
	// HandleReply processes the view received in response to Tick. The
	// reply's backing array may be recycled once it is merged.
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

// payloadPool recycles Cyclon's wire payloads, as *[]view.Entry: one
// buffer carries a whole exchange — Tick fills it with the request, the
// partner overwrites it with the reply, and the initiator returns it
// here once the reply is merged.
var payloadPool sync.Pool

// getPayload returns an empty payload buffer with capacity at least c.
// A pooled buffer too small for this view (another cluster's, or a
// decoded wire batch) is dropped.
func getPayload(c int) []view.Entry {
	if p, _ := payloadPool.Get().(*[]view.Entry); p != nil && cap(*p) >= c {
		return (*p)[:0]
	}
	return make([]view.Entry, 0, c)
}

// putPayload recycles a payload whose message has been consumed.
func putPayload(buf []view.Entry) {
	if cap(buf) > 0 {
		payloadPool.Put(&buf)
	}
}

// Cyclon is the variant of the Cyclon protocol described in §4.3.2 and
// Fig. 3: each period the node ages its view, selects its oldest
// neighbor j, and sends its whole view (minus j's entry, plus a fresh
// self entry); j replies with its whole view (minus entries describing
// the initiator); both sides merge keeping their own version of
// duplicated entries. Unlike original Cyclon, all entries are exchanged
// at each step. Both merges run the simulator's fused kernel
// (view.MergeCompact) whenever the received batch is ID-unique, as every
// honest peer's is; a batch that repeats an ID takes the scratch merge,
// which tolerates it. One pooled buffer carries an exchange end to end:
// the partner writes its reply into the request's array (view.MergeReply,
// as the simulator's exchange round does), and the initiator recycles
// it after merging the reply.
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
	payload := AppendRequest(getPayload(c.v.Cap()), c.v, oldest.ID, c.selfEntry())
	return []proto.Envelope{{To: oldest.ID, Msg: proto.ViewRequest{Entries: payload}}}
}

// HandleRequest implements Protocol (Fig. 3, passive thread, lines 7-10).
// The reply — the pre-merge view minus the initiator — is written into
// the request's own backing array, or a pooled buffer when that array
// cannot hold the view.
func (c *Cyclon) HandleRequest(from core.ID, req proto.ViewRequest, _ core.RNG) []proto.Envelope {
	in := req.Entries
	scr := mergePool.Get().(*view.MergeScratch)
	var reply []view.Entry
	if view.UniqueIDs(in) {
		dst := in[:cap(in)]
		if len(dst) < c.v.Len() {
			dst = getPayload(c.v.Cap())
			dst = dst[:cap(dst)]
		}
		reply = dst[:c.v.MergeReply(in, c.self, scr, dst)]
	} else {
		// The scratch merge reads the batch as it goes, so the reply is
		// captured into a buffer of its own first.
		reply = c.v.AppendEntries(getPayload(c.v.Cap()))
		c.v.MergeUsing(in, c.self, scr)
	}
	mergePool.Put(scr)
	return []proto.Envelope{{To: from, Msg: proto.ViewReply{Entries: removeID(reply, from)}}}
}

// HandleReply implements Protocol (Fig. 3, active thread, lines 4-6).
// The reply's array goes back to the payload pool once merged.
func (c *Cyclon) HandleReply(_ core.ID, rep proto.ViewReply) {
	c.merge(rep.Entries)
	putPayload(rep.Entries)
}

// AppendRequest appends a Cyclon exchange request to dst (§4.3.2): v's
// entries minus the partner's, in view order, then the self entry. The
// partner was just picked from v, so the request holds at most v.Cap()
// entries. Live Tick and the simulator's membership round both build
// their requests here.
func AppendRequest(dst []view.Entry, v *view.View, partner core.ID, self view.Entry) []view.Entry {
	raw := v.Raw()
	for i := range raw {
		if raw[i].ID == partner {
			return append(append(append(dst, raw[:i]...), raw[i+1:]...), self)
		}
	}
	return append(append(dst, raw...), self)
}

// removeID deletes the entry for id from a payload, keeping the others
// in order. A view holds an ID at most once, so the first match is the
// only one.
func removeID(entries []view.Entry, id core.ID) []view.Entry {
	for i := range entries {
		if entries[i].ID == id {
			return append(entries[:i], entries[i+1:]...)
		}
	}
	return entries
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
// original JK algorithm runs on a variant of Newscast. Only the
// benchmark's membership.newscast_exchange_ns kernel row reaches it;
// the benchmark-maintenance change that retires that row removes it.
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
