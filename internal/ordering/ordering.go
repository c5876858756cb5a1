// Package ordering implements the random-value ordering protocols of §4
// of the paper: the JK algorithm (Jelasity & Kermarrec, P2P 2006) and
// the paper's improvement mod-JK.
//
// Every node i draws a uniform random value r_i ∈ (0,1] once, at join
// time. Nodes gossip-swap random values with misplaced neighbors —
// neighbors j for which (a_j − a_i)(r_j − r_i) < 0 — until the order of
// random values agrees with the order of attribute values everywhere.
// Each node reads its slice off its current random value.
//
// JK picks a uniformly random misplaced neighbor. mod-JK picks the
// misplaced neighbor maximizing the local disorder measure gain
// G_{i,j} (Eq. (1) of the paper), computed over the local attribute and
// random sequences of the view plus the node itself.
package ordering

import (
	"fmt"
	"math"
	"sync"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/telemetry"
	"github.com/gossipkit/slicing/internal/view"
)

// Policy selects the swap partner among the view's misplaced neighbors.
type Policy int

// Available partner-selection policies.
const (
	// SelectRandomMisplaced picks a uniformly random misplaced neighbor:
	// the JK algorithm.
	SelectRandomMisplaced Policy = iota + 1
	// SelectMaxGain picks the misplaced neighbor with the largest local
	// disorder gain G_{i,j}: the paper's mod-JK algorithm.
	SelectMaxGain
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SelectRandomMisplaced:
		return "jk"
	case SelectMaxGain:
		return "mod-jk"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Misplaced reports whether two nodes hold random values out of order
// with respect to their attribute values: (a_j − a_i)(r_j − r_i) < 0
// (§4.2). Nodes with equal attribute or equal random values are not
// misplaced: swapping cannot reduce disorder.
func Misplaced(ai, aj core.Attr, ri, rj float64) bool {
	return (float64(aj)-float64(ai))*(rj-ri) < 0
}

// Stats counts protocol events for the unsuccessful-swap analysis of
// §4.5.2 (Fig. 4(c)).
type Stats struct {
	// ReqSent counts swap requests sent.
	ReqSent uint64
	// ReqReceived counts swap requests received.
	ReqReceived uint64
	// SwapFailedAtReceiver counts requests whose swap predicate no
	// longer held when the request was processed: the paper's
	// "unsuccessful swaps" caused by concurrency staleness.
	SwapFailedAtReceiver uint64
	// SwapFailedAtInitiator counts replies whose predicate no longer
	// held at the initiator.
	SwapFailedAtInitiator uint64
	// SwapAbandonedAtSender counts requests discarded at send time
	// because the swap predicate had already expired — the atomic cycle
	// model's "the view is up-to-date when a message is sent": an
	// initiator that re-checks its partner right before sending simply
	// does not send. Only the cycle engine's commit phase produces these
	// (see sim: a compute-phase selection can go stale before its
	// slot-ordered commit); on the wire-level runtime every request is
	// sent as ticked.
	SwapAbandonedAtSender uint64
	// Swapped counts applied value adoptions (either side).
	Swapped uint64
}

// Node is a JK / mod-JK protocol instance bound to one network node.
// It implements proto.Node.
type Node struct {
	id     core.ID
	attr   core.Attr
	r      float64
	part   core.Partition
	policy Policy
	v      *view.View
	stats  Stats
	// trace receives swap decision events when set (telemetry.TraceRing
	// is nil-safe, so the hot path pays one nil check per event when
	// tracing is off — the 100k-node simulator never sets it).
	trace *telemetry.TraceRing
}

// scratchPool lends the envelope path (Tick, LDM) its tick buffers. A
// Node embeds none of its own: the cycle engine stores a million of them
// by value and passes per-worker Scratch to TickTable, and a live node
// ticks for microseconds per period, so neither should retain buffers
// between calls.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Scratch holds the reusable tick buffers — the filtered view snapshot
// and the local-sequence members. Callers that drive many nodes from
// one goroutine (the cycle engine's workers) share one Scratch across
// all of them instead of paying per-node buffer growth.
type Scratch struct {
	entries []view.Entry
	members []localMember
	// misp holds the member indices the prescan flagged misplaced — the
	// only ranks (besides self's) the swap decision reads.
	misp []int32
	// Packed-key rank buffers (rankMembersPackedPartial).
	keyA, keyR []uint64
	las, lrs   []int32
	// noPack latches when a population exposes systematic key ties
	// (discrete attribute distributions): the packed pass cannot order
	// ties by ID, so retrying it every tick would only double the work.
	noPack bool
}

var _ proto.Node = (*Node)(nil)

// Config parameterizes a protocol instance.
type Config struct {
	ID        core.ID
	Attr      core.Attr
	Partition core.Partition
	Policy    Policy
	View      *view.View
	// InitialR is the node's uniform random draw r_i ∈ (0,1]. The caller
	// draws it (with its seeded rng) so that runs are reproducible.
	InitialR float64
}

// NewNode builds a protocol instance.
func NewNode(cfg Config) (*Node, error) {
	if cfg.View == nil {
		return nil, fmt.Errorf("ordering: config needs a view")
	}
	if cfg.InitialR <= 0 || cfg.InitialR > 1 {
		return nil, fmt.Errorf("ordering: initial random value %v outside (0,1]", cfg.InitialR)
	}
	switch cfg.Policy {
	case SelectRandomMisplaced, SelectMaxGain:
	default:
		return nil, fmt.Errorf("ordering: unknown policy %d", int(cfg.Policy))
	}
	return &Node{
		id:     cfg.ID,
		attr:   cfg.Attr,
		r:      cfg.InitialR,
		part:   cfg.Partition,
		policy: cfg.Policy,
		v:      cfg.View,
	}, nil
}

// ID implements proto.Node.
func (n *Node) ID() core.ID { return n.id }

// Member implements proto.Node.
func (n *Node) Member() core.Member { return core.Member{ID: n.id, Attr: n.attr} }

// Estimate implements proto.Node: the node's current random value.
func (n *Node) Estimate() float64 { return n.r }

// SliceIndex implements proto.Node: slice_i = S_{l,u} with l < r_i ≤ u
// (Fig. 2 line 14).
func (n *Node) SliceIndex() int { return n.part.Index(n.r) }

// SelfEntry implements proto.Node.
func (n *Node) SelfEntry() view.Entry {
	return view.Entry{ID: n.id, Age: 0, Attr: n.attr, R: n.r}
}

// View exposes the node's view (shared with its membership protocol).
func (n *Node) View() *view.View { return n.v }

// Stats returns a snapshot of the node's event counters.
func (n *Node) Stats() Stats { return n.stats }

// SetTrace attaches a protocol trace ring; nil detaches. Swap
// requests, adoptions, rejections, and abandons are recorded on it.
func (n *Node) SetTrace(tr *telemetry.TraceRing) { n.trace = tr }

// Tick implements proto.Node: one active-thread period (Fig. 2 lines
// 4-9). The view has already been recomputed by the membership layer.
// A live node knows its neighbors only through its view, so it ticks on
// an empty table: every neighbor resolves to its recorded entry. The
// returned envelope carries the swap request, if any partner qualifies.
func (n *Node) Tick(rng core.RNG) []proto.Envelope {
	scr := scratchPool.Get().(*Scratch)
	target, req, ok := n.TickTable(n.r, nil, rng, scr)
	scratchPool.Put(scr)
	if !ok {
		return nil
	}
	return []proto.Envelope{{To: target, Msg: req}}
}

// TickTable is the swap tick both engines run, and the one policy
// dispatch: the node's coordinate is selfR, and a neighbor's is its
// coords entry when the table knows it, its view entry otherwise. The
// cycle engine passes its phase-start snapshot; a live node passes nil.
// mod-JK goes to the partial rank kernel (TickSwapFast); JK draws from
// the view over the same table. It returns the chosen partner and the
// swap request by value, drawing tick scratch from scr.
func (n *Node) TickTable(selfR float64, coords proto.CoordTable, rng core.RNG, scr *Scratch) (core.ID, proto.SwapRequest, bool) {
	if n.policy == SelectMaxGain {
		return n.TickSwapFast(selfR, coords, scr)
	}
	target, ok := n.drawPartner(selfR, coords.Coord, rng, scr)
	return n.request(target, ok, selfR)
}

// TickSwap is the reference swap tick: TickTable with coordinates
// resolved through a StateReader and mod-JK ranked by the exact O(c²)
// count. The kernel tests and benchmarks check the fast kernels
// against it.
func (n *Node) TickSwap(state proto.StateReader, rng core.RNG, scr *Scratch) (core.ID, proto.SwapRequest, bool) {
	selfR, ok := state.R(n.id)
	if !ok {
		selfR = n.r
	}
	var target core.ID
	if n.policy == SelectMaxGain {
		target, ok = n.selectMaxGain(selfR, state, scr)
	} else {
		target, ok = n.drawPartner(selfR, state.R, rng, scr)
	}
	return n.request(target, ok, selfR)
}

// request is the shared tail of every swap tick: it books a request to
// target and builds its payload, or reports that no partner qualified.
func (n *Node) request(target core.ID, ok bool, selfR float64) (core.ID, proto.SwapRequest, bool) {
	if !ok {
		return 0, proto.SwapRequest{}, false
	}
	n.stats.ReqSent++
	n.trace.Record(telemetry.TraceEvent{
		Kind: telemetry.TraceSwapRequest, Node: uint64(n.id), Peer: uint64(target), Rank: selfR,
	})
	return target, proto.SwapRequest{R: selfR, Attr: n.attr}, true
}

// neighborCoordinate resolves a neighbor's random value through the
// state reader, falling back to the view's recorded value when the
// reader does not know the neighbor.
func neighborCoordinate(state proto.StateReader, e view.Entry) float64 {
	if r, ok := state.R(e.ID); ok {
		return r
	}
	return e.R
}

// drawPartner is the JK policy's partner choice: a uniform draw over
// the view's non-placeholder entries misplaced against selfR, each
// neighbor's coordinate resolved through coord with the view's
// recorded value as fallback.
func (n *Node) drawPartner(selfR float64, coord func(core.ID) (float64, bool), rng core.RNG, scr *Scratch) (core.ID, bool) {
	// Placeholder entries carry no usable coordinates; they are gossip
	// contacts for the membership layer only.
	entries := scr.entries[:0]
	for _, e := range n.v.Raw() {
		if e.Placeholder() {
			continue
		}
		r := e.R
		if cr, ok := coord(e.ID); ok {
			r = cr
		}
		if !Misplaced(n.attr, e.Attr, selfR, r) {
			continue
		}
		entries = append(entries, e)
	}
	scr.entries = entries
	if len(entries) == 0 {
		return 0, false
	}
	return entries[rng.Intn(len(entries))].ID, true
}

// selectMaxGain evaluates the gain G_{i,j} for every misplaced neighbor
// and returns the argmax (Fig. 2 lines 4-8). The local sequences are
// only ranked when at least one neighbor is misplaced: once a
// neighborhood is ordered — the steady state of a converged system —
// the tick costs a single O(c) scan and sends nothing, instead of the
// O(c²) rank count. The outcome is identical, since G is only ever
// evaluated for misplaced neighbors.
func (n *Node) selectMaxGain(selfR float64, state proto.StateReader, scr *Scratch) (core.ID, bool) {
	members := n.localMembers(selfR, state, scr)
	anyMisplaced := false
	for i := 1; i < len(members); i++ {
		if Misplaced(n.attr, members[i].attr, selfR, members[i].r) {
			anyMisplaced = true
			break
		}
	}
	if !anyMisplaced {
		return 0, false
	}
	return n.argmaxGain(n.rankMembers(members), selfR)
}

// argmaxGain returns the misplaced member with the largest gain G_{i,j},
// first occurrence winning ties (strict >) — the shared tail of TickSwap
// and TickSwapFast, so the two cannot diverge on the selection rule.
func (n *Node) argmaxGain(local localSeq, selfR float64) (core.ID, bool) {
	bestGain := 0.0
	var best core.ID
	found := false
	for _, m := range local.others {
		if !Misplaced(n.attr, m.attr, selfR, m.r) {
			continue
		}
		g := local.gain(local.self, m)
		if !found || g > bestGain {
			bestGain, best, found = g, m.id, true
		}
	}
	return best, found
}

// TickSwapFast is TickTable's mod-JK kernel: the caller resolves the
// node's own coordinate (selfR) and hands its neighbors' as a concrete
// CoordTable, and only the ranks the decision reads are computed
// (rankLocal). Decision equivalence with TickSwap over a reader that
// answers as the table does is exact: the member set, per-member
// coordinates, rank orders, gain argmax, and stats/trace side effects
// are all identical (pinned by TestTickSwapFastMatchesTickSwap).
func (n *Node) TickSwapFast(selfR float64, coords proto.CoordTable, scr *Scratch) (core.ID, proto.SwapRequest, bool) {
	// Gather N_i ∪ {i} in storage order with the misplaced prescan fused
	// in: a converged neighborhood — the steady state — exits after this
	// single O(c) pass without ranking anything.
	members := append(scr.members[:0], localMember{id: n.id, attr: n.attr, r: selfR})
	misp := scr.misp[:0]
	for _, e := range n.v.Raw() {
		if e.Placeholder() {
			continue
		}
		r := e.R
		if cr, ok := coords.Coord(e.ID); ok {
			r = cr
		}
		if Misplaced(n.attr, e.Attr, selfR, r) {
			misp = append(misp, int32(len(members)))
		}
		members = append(members, localMember{id: e.ID, attr: e.Attr, r: r})
	}
	scr.members, scr.misp = members, misp
	if len(misp) == 0 {
		return 0, proto.SwapRequest{}, false
	}
	target, ok := n.argmaxGain(n.rankLocal(members, scr, misp), selfR)
	return n.request(target, ok, selfR)
}

// packedRank is rankMembersPackedPartial's outcome.
type packedRank int

const (
	packedOK packedRank = iota
	// packedTied: two members share an attr or coordinate key — the
	// packed compare cannot apply the ID tiebreak. Systematic for
	// discrete attribute distributions, so callers latch off the path.
	packedTied
	// packedGated: a key transform precondition failed (NaN, or an exact
	// zero whose two float encodings compare unequal as bits). Transient,
	// so callers just fall back for this tick.
	packedGated
)

// floatKey maps a float64 to a uint64 whose unsigned order equals the
// float order, for all non-NaN inputs with a single encoding (the
// caller gates NaNs and zeros): flip all bits of negatives, set the
// sign bit of non-negatives.
func floatKey(f float64) uint64 {
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// packKeys fills the scratch key arrays with the members' order keys,
// reporting false when any input is gated (NaN, or an exact zero whose
// two float encodings break the key transform's monotonicity).
func packKeys(members []localMember, scr *Scratch) bool {
	c := len(members)
	if cap(scr.keyA) < c {
		scr.keyA = make([]uint64, c+8)
		scr.keyR = make([]uint64, c+8)
		scr.las = make([]int32, c+8)
		scr.lrs = make([]int32, c+8)
	}
	ka, kr := scr.keyA[:c], scr.keyR[:c]
	bad := 0
	for i := range members {
		m := &members[i]
		a, r := float64(m.attr), m.r
		if a != a || a == 0 || r != r || r == 0 {
			bad = 1
		}
		ka[i] = floatKey(a)
		kr[i] = floatKey(r)
	}
	return bad == 0
}

// rankMembersPackedPartial ranks only the members whose ranks the swap
// decision actually reads — self and the prescan's misplaced set — each
// by one full strict-less scan of the packed keys, O(c·(1+|misplaced|))
// instead of O(c²), and a single predicated uint64 compare per pair and
// axis instead of a float compare plus ID tiebreak. Unscanned members
// keep the zero ranks the gather gave them; argmaxGain skips well-placed
// members before touching a rank, so those zeros are never consulted.
// Key equality is tested on every scanned pair — exactly the pairs that
// could shift a computed rank — and a tie (or gate) bails with the
// staged ranks uncommitted, leaving the members untouched for the exact
// count. A tie confined to two unscanned members goes undetected, which
// is sound for the same reason the zero ranks are: no consulted value
// depends on their order.
func rankMembersPackedPartial(members []localMember, scr *Scratch, misp []int32) packedRank {
	c := len(members)
	if !packKeys(members, scr) {
		return packedGated
	}
	ka, kr := scr.keyA[:c], scr.keyR[:c]
	las, lrs := scr.las[:len(misp)+1], scr.lrs[:len(misp)+1]
	ties := 0
	for j := 0; j < len(las); j++ {
		x := 0
		if j > 0 {
			x = int(misp[j-1])
		}
		kax, krx := ka[x], kr[x]
		var la, lr, eqa, eqr int32
		for y := 0; y < c; y++ {
			kay, kry := ka[y], kr[y]
			var aw, rw, ea, er int32
			if kay < kax {
				aw = 1
			}
			if kry < krx {
				rw = 1
			}
			if kay == kax {
				ea = 1
			}
			if kry == krx {
				er = 1
			}
			la += aw
			lr += rw
			eqa += ea
			eqr += er
		}
		// The scan includes y == x, which always counts one equality.
		if eqa > 1 || eqr > 1 {
			ties = 1
		}
		las[j], lrs[j] = la, lr
	}
	if ties != 0 {
		return packedTied
	}
	members[0].la, members[0].lr = las[0], lrs[0]
	for j, xi := range misp {
		members[xi].la, members[xi].lr = las[j+1], lrs[j+1]
	}
	return packedOK
}

// rankLocal is the swap tick's one rank dispatch, chosen from what the
// gather already has in hand: the partial packed kernel when the
// misplaced set is small enough that 1+m rows of c compares undercut the
// triangular c²/2 of the exact count — m+1 ≤ c/2, the converging regime
// — and rankMembers otherwise (cold start), or when the packed keys
// cannot decide: rankMembers breaks ties by ID, so it is also the
// tie/gate fallback. Both assign the same consulted ranks.
func (n *Node) rankLocal(members []localMember, scr *Scratch, misp []int32) localSeq {
	if 2*(len(misp)+1) <= len(members) && !scr.noPack {
		switch rankMembersPackedPartial(members, scr, misp) {
		case packedOK:
			return localSeq{self: members[0], others: members[1:], size: len(members)}
		case packedTied:
			scr.noPack = true
		}
	}
	return n.rankMembers(members)
}

// localMember is one element of the node's local sequences. The int32
// ranks pack the struct to exactly 32 bytes — two members per cache
// line in the rank-counting loop below.
type localMember struct {
	id   core.ID
	attr core.Attr
	r    float64
	la   int32 // ℓα: index in LA.sequence (local attribute order)
	lr   int32 // ℓρ: index in LR.sequence (local random-value order)
}

// localSeq is LA.sequence_i and LR.sequence_i over N_i ∪ {i} (§4.3):
// each member annotated with its indices in both.
type localSeq struct {
	self   localMember
	others []localMember
	size   int // c+1 in the paper's notation
}

// localMembers collects N_i ∪ {i} — self first — with each member's
// coordinate resolved through the state reader, into the reusable
// scratch. Ranks start at zero; rankMembers fills them.
func (n *Node) localMembers(selfR float64, state proto.StateReader, scr *Scratch) []localMember {
	members := append(scr.members[:0], localMember{id: n.id, attr: n.attr, r: selfR})
	for _, e := range n.v.Raw() {
		if e.Placeholder() {
			continue
		}
		members = append(members, localMember{id: e.ID, attr: e.Attr, r: neighborCoordinate(state, e)})
	}
	scr.members = members
	return members
}

// rankMembers runs once per node per cycle on unconverged neighborhoods
// — the single hottest loop of an ordering simulation — so instead of
// sorting the two local sequences it counts ranks pairwise: ℓα and ℓρ
// are each member's rank in the (attr, id) and (r, id) total orders,
// and for c+1 ≈ 21 members one fused O(c²) comparison pass over
// cache-resident structs is several times cheaper than two
// interface-driven sorts. Both orders are strict (ties break on the
// unique id), so the counted ranks equal the positions a stable sort
// would assign.
func (n *Node) rankMembers(members []localMember) localSeq {
	for x := 1; x < len(members); x++ {
		mx := &members[x]
		ax, rx, ix := mx.attr, mx.r, mx.id
		var lax, lrx int32
		for y := 0; y < x; y++ {
			my := &members[y]
			// Branchless bool→int (SETcc): the comparison outcomes are
			// data-random, so predicated arithmetic beats branching.
			var aLess, aTie, rLess, rTie, idLess int32
			if my.attr < ax {
				aLess = 1
			}
			if my.attr == ax {
				aTie = 1
			}
			if my.r < rx {
				rLess = 1
			}
			if my.r == rx {
				rTie = 1
			}
			if my.id < ix {
				idLess = 1
			}
			aw := aLess | (aTie & idLess)
			rw := rLess | (rTie & idLess)
			lax += aw
			my.la += 1 - aw
			lrx += rw
			my.lr += 1 - rw
		}
		mx.la += lax
		mx.lr += lrx
	}
	return localSeq{self: members[0], others: members[1:], size: len(members)}
}

// gain returns G_{i,j}(t+1) per Eq. (1): the local disorder reduction
// obtained by swapping the random values of i and j.
func (s localSeq) gain(i, j localMember) float64 {
	ai, ri := float64(i.la), float64(i.lr)
	aj, rj := float64(j.la), float64(j.lr)
	return ((ai-ri)*(ai-ri) + (aj-rj)*(aj-rj) - (ai-rj)*(ai-rj) - (aj-ri)*(aj-ri)) / float64(s.size)
}

// Handle implements proto.Node: the passive thread of Fig. 2 (lines
// 15-19) plus the initiator's reply processing (lines 10-14).
func (n *Node) Handle(from core.ID, msg proto.Message, _ core.RNG) []proto.Envelope {
	switch m := msg.(type) {
	case proto.SwapRequest:
		rep, _ := n.ApplySwapRequest(from, m)
		return []proto.Envelope{{To: from, Msg: rep}}
	case proto.SwapReply:
		n.ApplySwapReply(from, m)
		return nil
	default:
		// Not an ordering message (e.g. a stray RankUpdate); ignore.
		return nil
	}
}

// ApplySwapRequest applies the receiver side of the exchange: reply
// with the current random value, then adopt the initiator's value if the
// swap predicate holds (Fig. 2 lines 15-19). The reply is returned by
// value; Handle boxes it into an envelope for the wire-level runtime,
// while the cycle engine delivers it to the initiator directly. The
// second result reports whether the value was adopted, letting the
// engine maintain its coordinate mirror without re-reading Estimate.
func (n *Node) ApplySwapRequest(from core.ID, req proto.SwapRequest) (proto.SwapReply, bool) {
	n.stats.ReqReceived++
	reply := proto.SwapReply{R: n.r}
	if Misplaced(n.attr, req.Attr, n.r, req.R) {
		n.r = req.R
		n.stats.Swapped++
		n.trace.Record(telemetry.TraceEvent{
			Kind: telemetry.TraceSwapApplied, Node: uint64(n.id), Peer: uint64(from), Rank: n.r,
		})
		return reply, true
	}
	// The initiator believed the swap would help but the local state
	// moved on: an unsuccessful swap (§4.5.2).
	n.stats.SwapFailedAtReceiver++
	n.trace.Record(telemetry.TraceEvent{
		Kind: telemetry.TraceSwapFailed, Node: uint64(n.id), Peer: uint64(from), Rank: req.R,
	})
	return reply, false
}

// ApplySwapReply applies the initiator side: refresh the view's record
// of the partner's value, then adopt it if the predicate holds (Fig. 2
// lines 10-14). The partner's attribute comes from the view — the ACK
// does not carry it (the paper notes the initiator already has it).
func (n *Node) ApplySwapReply(from core.ID, rep proto.SwapReply) {
	e, ok := n.v.Get(from)
	if !ok {
		// The partner has since been rotated out of the view; without
		// its attribute value the predicate cannot be evaluated.
		n.stats.SwapFailedAtInitiator++
		n.trace.Record(telemetry.TraceEvent{
			Kind: telemetry.TraceSwapFailed, Node: uint64(n.id), Peer: uint64(from), Rank: rep.R,
		})
		return
	}
	n.v.UpdateR(from, rep.R)
	if Misplaced(n.attr, e.Attr, n.r, rep.R) {
		n.r = rep.R
		n.stats.Swapped++
		n.trace.Record(telemetry.TraceEvent{
			Kind: telemetry.TraceSwapApplied, Node: uint64(n.id), Peer: uint64(from), Rank: n.r,
		})
	} else {
		n.stats.SwapFailedAtInitiator++
		n.trace.Record(telemetry.TraceEvent{
			Kind: telemetry.TraceSwapFailed, Node: uint64(n.id), Peer: uint64(from), Rank: rep.R,
		})
	}
}

// AbandonSwap records that a ticked swap request was withdrawn before
// sending because its predicate expired between selection and send (the
// cycle engine's atomic-commit re-validation). The request was counted
// by ReqSent when ticked; SwapAbandonedAtSender keeps the books exact.
func (n *Node) AbandonSwap() {
	n.stats.SwapAbandonedAtSender++
	n.trace.Record(telemetry.TraceEvent{Kind: telemetry.TraceSwapAbandoned, Node: uint64(n.id)})
}

// SetAttr force-sets the node's attribute. The fault plane uses it for
// attribute drift (the attribute really changed) and byzantine
// impersonation (the node adopts a lie): either way every subsequent
// swap decision and outgoing payload carries the new value.
func (n *Node) SetAttr(a core.Attr) { n.attr = a }
