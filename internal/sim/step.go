package sim

import (
	"math"
	"sort"
	"unsafe"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/membership"
	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

// Step runs one simulation cycle: churn, the membership round, the
// slicing-protocol round, then measurement. Each round is a
// compute/commit pair (see the package comment): computes fan out over
// Config.Workers goroutines against immutable start-of-round state,
// commits apply mutations in a deterministic slot order — so a cycle is
// bit-identical at any worker count.
func (e *Engine) Step() {
	pc := e.startPhases()
	e.applyChurn()
	e.applyFaults()
	pc.lap(phaseIxChurn)
	if e.cfg.Membership == UniformOracle {
		e.oracleRound()
	} else {
		e.exchangeRound(&pc)
	}
	pc.lap(phaseIxMembership)
	e.protocolRound(&pc)
	pc.lap(phaseIxProtocol)
	e.cycle++
	e.record()
	pc.lap(phaseIxMeasure)
}

// Run advances the simulation by the given number of cycles.
func (e *Engine) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		e.Step()
	}
}

// mergeMembers rebuilds the attribute-ordered membership after a churn
// event in place: one forward pass compacts out the departed members
// (their slot is gone), then the event's joiners — sorted among
// themselves, at most a handful — are merged in from the back, so no
// element is overwritten before it has moved. O(n + j·log j) per event,
// against the O(n·log n) sort per joiner the map-based engine paid, and
// no second membership buffer.
func (e *Engine) mergeMembers(joiners []core.Member) {
	core.SortMembers(joiners)
	kept := e.members[:0]
	for _, m := range e.members {
		if e.slots[m.ID] != noSlot {
			kept = append(kept, m)
		}
	}
	i, j := len(kept)-1, len(joiners)-1
	out := append(kept, joiners...) // only the length matters here
	for w := len(out) - 1; j >= 0; w-- {
		if i >= 0 && core.Less(joiners[j], out[i]) {
			out[w] = out[i]
			i--
		} else {
			out[w] = joiners[j]
			j--
		}
	}
	e.members = out
}

// removeNode swap-deletes a node from the arena: the last node's state
// moves into the vacated slot across every parallel slice, its view is
// rebound onto the freed arena block (one block copy), and the departed
// ID's slot entry is tombstoned. O(1) per removal; the attribute-ordered
// membership is compacted later by mergeMembers.
func (e *Engine) removeNode(id core.ID) {
	s, ok := e.slotOf(id)
	if !ok {
		return
	}
	last := int32(len(e.ids) - 1)
	ord := e.isOrdering()
	if s != last {
		e.ids[s] = e.ids[last]
		e.attrs[s] = e.attrs[last]
		// The View header moves with its node; only its backing storage
		// is re-homed, Rebind copying the survivor's entries from block
		// `last` into the vacated block `s`.
		e.views[s] = e.views[last]
		e.views[s].Rebind(e.varena.Block(int(s)))
		if ord {
			e.rs[s] = e.rs[last]
		} else {
			e.ests[s] = e.ests[last]
		}
		e.slots[e.ids[s]] = s
	}
	// Release the tail slot's estimator to the GC and truncate every
	// parallel slice in lockstep.
	if ord {
		e.rs = e.rs[:last]
	} else {
		e.ests[last] = nil
		e.ests = e.ests[:last]
	}
	e.views[last] = view.View{}
	e.views = e.views[:last]
	e.attrs = e.attrs[:last]
	e.ids = e.ids[:last]
	e.slots[id] = noSlot
	if int(id) < len(e.coordTab) {
		e.coordTab[id] = math.NaN()
	}
	e.faults.Forget(id)
}

// exchangeRound is the membership phase for the Cyclon substrate,
// restructured from the serial permutation walk into compute/commit
// rounds. The exchange semantics are inlined over the arena: every node
// ages its view, gossips with its oldest entry and merges with
// keep-known-duplicate semantics; a timed-out exchange drops the
// partner's entry (§3.3).
//
// Compute (parallel over slots): every node ages its view and selects
// its oldest entry as partner — each node touches only its own state —
// then its request payload is frozen into a flat engine buffer: the
// post-age view minus the partner's own entry, plus a fresh self entry
// (§4.3.2; what live membership.Cyclon sends). The target's merge skips
// an entry describing itself, so leaving that entry out changes no
// merge, and the window holds at most ViewSize entries either way.
// Requests to departed partners time out here (the initiator drops the
// stale entry and skips its exchange, exactly as in the serial engine);
// an initiator with no exchange this round stages nothing.
//
// Commit half A (parallel over view OWNERS): each target absorbs one
// frozen request per initiator that selected it, in ascending
// initiator-slot order, and in the same merge captures that initiator's
// reply from its LIVE pre-merge view — so when several initiators fan in
// on one target in the same cycle, each gets a different reply, exactly
// as the serial walk produced. (Serving all of them the same frozen view
// instead measurably homogenizes views — clusters of nodes end up
// holding near-identical neighbor sets, which starves the ranking
// estimator of sample diversity and stalls its convergence.) The reply
// is written over the initiator's request window — the request is dead
// once absorbed, so the round needs one flat payload store, not two.
// Every initiator has exactly one target, so no two workers ever write
// the same window.
//
// Commit half B (parallel over initiators, after a barrier): every
// initiator absorbs the reply now sitting in its own window.
//
// Each view's merge sequence — requests in initiator-slot order in half
// A, its own reply in half B — is fixed by slot order alone, so the
// round is bit-identical at any worker count. Every node still
// completes one full REQ′/ACK′ exchange per cycle ("each node updates
// its view before sending its random value or its attribute value",
// §4.5.2); what changed versus the serial engine is only that requests
// read start-of-round views and replies land after all requests.
//
// pc's membership sub-phases split at the two commit boundaries: stage
// is everything before half A, reply is half A, absorb is half B.
func (e *Engine) exchangeRound(pc *phaseClock) {
	n := len(e.ids)
	if n == 0 {
		return
	}
	stride := e.cfg.ViewSize // a request (view − partner + self) or a reply (a view)
	e.memTarget = grow(e.memTarget, n)
	e.reqLen = grow(e.reqLen, n)
	e.reqStore = grow(e.reqStore, n*stride)
	for i := range e.ws {
		e.ws[i].dropped, e.ws[i].partDrops, e.ws[i].chaosDrops = 0, 0, 0
	}
	e.parallelFor(n, func(w, lo, hi int) {
		ws := &e.ws[w]
		for s := lo; s < hi; s++ {
			id := e.ids[s]
			v := &e.views[s]
			// Cyclon always picks the oldest entry right after aging: one
			// fused read-modify pass instead of two view walks.
			pen, pok := v.AgeAllOldest()
			tgt := int32(-1)
			if pok {
				if ts, live := e.slotOf(pen.ID); live {
					drop, _, _ := e.chaos(id, pen.ID, 0)
					switch {
					case e.net.Blocks(id, pen.ID):
						// The partner is unreachable across the partition:
						// the exchange is suppressed, but the view entry is
						// KEPT — the partner is alive, and those entries are
						// what re-merges the overlay when the partition
						// heals (no sim node ever re-bootstraps).
						ws.partDrops++
					case drop:
						// Chaos ate the view request; the exchange never
						// completes this cycle.
						ws.chaosDrops++
					default:
						tgt = ts
					}
				} else {
					// The partner departed: the request times out and the
					// initiator drops the stale entry (§3.3).
					ws.dropped++
					v.Remove(pen.ID)
				}
			}
			e.memTarget[s] = tgt
			if tgt < 0 {
				continue
			}
			off := s * stride
			req := membership.AppendRequest(e.reqStore[off:off:off+stride], v, pen.ID, e.selfEntryAt(int32(s)))
			e.reqLen[s] = int32(len(req))
		}
	})
	for i := range e.ws {
		e.Delivered.Dropped += e.ws[i].dropped + e.ws[i].partDrops + e.ws[i].chaosDrops
		e.faults.Counts.PartitionDrops += e.ws[i].partDrops
		e.faults.Counts.ChaosDrops += e.ws[i].chaosDrops
	}

	// Deterministic per-target initiator lists: a counting sort of the
	// partner choices by target slot (see initHead).
	// initList[head[t]:head[t+1]] holds the initiator slots of target t
	// in ascending order.
	e.initHead = grow(e.initHead, n+2)
	e.initList = grow(e.initList, n)
	head := e.initHead
	clear(head[:n+2])
	delivered := uint64(0)
	for s := 0; s < n; s++ {
		if t := e.memTarget[s]; t >= 0 {
			head[t+2]++
			delivered++
		}
	}
	prefixSum(head[:n+2])
	for s := 0; s < n; s++ {
		if t := e.memTarget[s]; t >= 0 {
			e.initList[head[t+1]] = int32(s)
			head[t+1]++
		}
	}
	// One request and one reply land per completed exchange.
	e.Delivered.ViewRequests += delivered
	e.Delivered.ViewReplies += delivered
	pc.split()

	// Commit half A: targets reply and absorb, in initiator-slot order.
	// MergeReply fuses the reply capture into the merge itself: the
	// absorbed request's window is rewritten with the target's pre-merge
	// entries in the same kernel, so each commit touches the arena block
	// once and the reply needs no staging copy.
	e.parallelFor(n, func(w, lo, hi int) {
		ws := &e.ws[w]
		// g walks the worker's span of initList globally, one step per
		// (target, initiator) pair. Each pair's request window is a random
		// ~500-byte read, so the next pair's window is prefetched before
		// the current pair merges: the prefetch does not wait for its
		// lines, and they arrive while the merge runs.
		g, ghi := head[lo], head[hi]
		if g < ghi {
			off := int(e.initList[g]) * stride
			prefetchWindow(e.reqStore[off : off+stride])
		}
		for t := lo; t < hi; t++ {
			list := e.initList[head[t]:head[t+1]]
			if len(list) == 0 {
				continue
			}
			v := &e.views[t]
			tid := e.ids[t]
			for _, s32 := range list {
				if g++; g < ghi {
					noff := int(e.initList[g]) * stride
					prefetchWindow(e.reqStore[noff : noff+stride])
				}
				s := int(s32)
				off := s * stride
				req := e.reqStore[off : off+int(e.reqLen[s])]
				e.reqLen[s] = int32(v.MergeReply(req, tid, &ws.merge, e.reqStore[off:off+stride]))
			}
		}
	})
	pc.split()
	// Commit half B: initiators absorb their replies.
	e.parallelFor(n, func(w, lo, hi int) {
		ws := &e.ws[w]
		for s := lo; s < hi; s++ {
			if e.memTarget[s] < 0 {
				continue
			}
			off := s * stride
			reply := e.reqStore[off : off+int(e.reqLen[s])]
			e.views[s].MergeCompact(reply, e.ids[s], &ws.merge)
		}
	})
}

// oracleRound is the membership phase for the uniform oracle (§5.3.2):
// every view is re-drawn uniformly at random from the live population.
// The round is one sampling batch: it freezes every node's self entry
// at its start — coordinates at most one phase old, exactly what a
// fresh gossip entry would carry — and draws on per-node streams
// against that, so it parallelizes over slots with no exchange step at
// all — a fresh uniform sample, no messages — each worker using its own
// rejection-sampling scratch; the self entries are dropped when the
// round ends.
func (e *Engine) oracleRound() {
	k := e.cfg.ViewSize
	seed, cycle := e.cfg.Seed, uint64(e.cycle)
	selfs := e.selfEntries()
	e.parallelFor(len(e.ids), func(w, lo, hi int) {
		sp := &e.ws[w].sampler
		stream := &e.ws[w].stream
		for s := lo; s < hi; s++ {
			*stream = nodeStream(seed, uint64(e.ids[s]), cycle, phaseMembership)
			fresh := sp.buf[:0]
			for _, d := range sp.sample(stream, len(selfs), k, int32(s)) {
				fresh = append(fresh, selfs[d])
			}
			sp.buf = fresh
			// The sample is distinct and already excludes s; the bulk
			// Reset is the Clear+Add loop minus its duplicate scans.
			e.views[s].Reset(fresh)
		}
	})
}

// deferredEnv is an overlapping or chaos-delayed protocol message held
// back until the end of the cycle (§4.5.2), flattened to its payload: a
// swap request's frozen coordinate and attribute (ordering) or the
// sender's attribute (ranking). The sender is recorded by arena slot:
// churn never runs mid-cycle, so slots are stable for the lifetime of
// the deferral.
type deferredEnv struct {
	from int32
	to   core.ID
	r    float64
	attr core.Attr
}

// protocolRound runs the slicing step of every node as a compute/commit
// pair, specialized per protocol — the engine hands each node's column
// facts to the protocol's unboxed tick/apply kernels, so the round
// allocates nothing and dispatches nothing beyond a ranking node's
// estimator.
//
// Compute (parallel over slots): every node's coordinate is frozen into
// a start-of-phase snapshot (coordTab), then every initiator ticks on
// its own per-cycle stream against that snapshot — partner choice,
// outgoing payloads and (for mod-JK) the local-sequence ranking all
// read frozen state, so the expensive part of the phase uses all cores.
// Tick outputs land in flat per-slot stores: the swap target for
// ordering, the two UPD targets for ranking.
//
// Commit (deterministic): deliveries apply in slot order.
// Non-overlapping ordering exchanges are atomic (§4.5.2, "the view is
// up-to-date when a message is sent"): the request re-reads the live
// random value and re-validates the swap predicate at send time, and a
// selection that went stale between compute and commit is abandoned
// unsent — which is why the atomic cycle model still produces zero
// unsuccessful swaps. Overlapping exchanges (probability
// Config.Concurrency, drawn on the initiator's stream) keep their
// stale-delivery semantics: they land after every immediate exchange,
// in an engine-stream shuffled order, where the swap predicate is
// re-evaluated against live state — failed predicates are the paper's
// unsuccessful swaps. Ranking updates are one-way and always useful, so
// they deliver immediately regardless of Concurrency (§5), and their
// commit fans out over the workers (see commitRanking), since which
// estimator absorbs which update is fixed by the compute phase and the
// chaos verdicts alone.
//
// pc's protocol sub-phases split between the two: tick, then commit.
func (e *Engine) protocolRound(pc *phaseClock) {
	n := len(e.ids)
	if n == 0 {
		return
	}
	if e.isOrdering() {
		e.tickOrdering(n)
		pc.split()
		e.commitOrdering(n)
	} else {
		e.tickRanking(n)
		pc.split()
		e.commitRanking(n)
	}
}

// tickOrdering runs the ordering compute phase: every node's partner
// choice, plus its overlap draw, in parallel. No commit has run yet, so
// a node's live coordinate rs[s] is its snapshot coordinate. A tick
// reads coordTab once per neighbor, a random read once the table
// outgrows a core's cache, so on such a table slot s+tickAhead's
// neighbors are prefetched before slot s ticks; on a smaller one the
// extra view walk only costs (+10 % tick at 10k and 100k nodes).
func (e *Engine) tickOrdering(n int) {
	e.swapTo = grow(e.swapTo, n)
	e.overlapBuf = grow(e.overlapBuf, n)
	conc, policy := e.cfg.Concurrency, e.cfg.Policy
	drawOverlap := conc > 0
	coords := e.refreshCoordTab(n)
	ahead := len(coords) >= tickPrefetchIDs
	seed, cycle := e.cfg.Seed, uint64(e.cycle)
	e.parallelFor(n, func(w, lo, hi int) {
		ws := &e.ws[w]
		for s := lo; s < hi; s++ {
			if a := s + tickAhead; ahead && a < hi {
				for _, en := range e.views[a].Raw() {
					if int(en.ID) < len(coords) {
						prefetchAt(&coords[en.ID])
					}
				}
			}
			ws.stream = nodeStream(seed, uint64(e.ids[s]), cycle, phaseProtocol)
			st := &ws.stream
			e.overlapBuf[s] = drawOverlap && st.Float64() < conc
			self := e.orderingSelf(int32(s), &ws.ostats)
			to, _, ok := self.TickTable(policy, e.rs[s], coords, st, &ws.oscr)
			if !ok {
				to = 0
			}
			e.swapTo[s] = to
		}
	})
}

// refreshCoordTab rebuilds the ID-indexed coordinate table, the
// protocol round's start-of-phase snapshot: the growth tail (IDs minted
// since the table last grew) initializes to NaN, every live ID takes
// its node's coordinate (rs under ordering, the estimate under
// ranking), and departed IDs keep the NaN removeNode pinned.
// Writes are per-slot disjoint (IDs are unique), so the fill
// parallelizes without affecting worker-count invariance.
func (e *Engine) refreshCoordTab(n int) proto.CoordTable {
	if len(e.coordTab) < len(e.slots) {
		old := len(e.coordTab)
		if cap(e.coordTab) < len(e.slots) {
			// Reallocation loses the departed-ID NaN pins; refill from
			// scratch (the live fill below rewrites every live ID anyway).
			e.coordTab = make(proto.CoordTable, len(e.slots))
			old = 0
		} else {
			e.coordTab = e.coordTab[:len(e.slots)]
		}
		nan := math.NaN()
		for i := old; i < len(e.coordTab); i++ {
			e.coordTab[i] = nan
		}
	}
	if e.isOrdering() {
		e.parallelFor(n, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				e.coordTab[e.ids[s]] = e.rs[s]
			}
		})
	} else {
		e.parallelFor(n, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				e.coordTab[e.ids[s]] = e.ests[s].Estimate()
			}
		})
	}
	return e.coordTab
}

// commitOrdering applies the ordering deliveries serially in slot
// order: swap replies mutate the initiator's random value, which later
// slots' commit-time predicate checks must observe.
//
// A delivery reaches its random target through two dependent random
// reads at 1M nodes: the slot-table entry, then the slot's columns. Two
// cursors walk the ticked targets ahead and prefetch them: far, the
// slot-table entry; near, the columns of the slot that entry (cached by
// then) names. Churn never runs mid-cycle, so nothing they read moves.
// Unlike the tick's, this prefetch pays at every size measured (commit
// −14 % at 10k nodes, −32 % at 100k, −49 % at 1M).
func (e *Engine) commitOrdering(n int) {
	overlapping := e.deferredBuf[:0]
	var far, near int
	for i := 0; i < commitFar; i++ {
		e.prefetchSlotOf(nextSwap(e.swapTo, &far))
		if i < commitNear {
			e.prefetchTarget(nextSwap(e.swapTo, &near))
		}
	}
	for s := 0; s < n; s++ {
		to := e.swapTo[s]
		if to == 0 {
			continue
		}
		e.prefetchSlotOf(nextSwap(e.swapTo, &far))
		e.prefetchTarget(nextSwap(e.swapTo, &near))
		// An overlapping request is late already: of chaos's verdict
		// only a drop applies to it.
		drop, delay, dup := e.chaos(e.ids[s], to, 1)
		if e.overlapBuf[s] && !drop {
			overlapping = append(overlapping, e.frozenSwap(int32(s), to))
			continue
		}
		if e.net.Blocks(e.ids[s], to) {
			e.faults.Counts.PartitionDrops++
			e.Delivered.Dropped++
			continue
		}
		if drop {
			e.faults.Counts.ChaosDrops++
			e.Delivered.Dropped++
			continue
		}
		if delay {
			// A delayed request joins the overlapping set: it lands at
			// end of cycle with the stale-delivery semantics overlap
			// already has.
			e.faults.Counts.ChaosDelays++
			overlapping = append(overlapping, e.frozenSwap(int32(s), to))
			continue
		}
		// Atomic exchange: send the live value, and only if the swap
		// still helps.
		r, attr := e.rs[s], e.attrs[s]
		if ts, live := e.slotOf(to); live && !e.swapStillHelps(ts, r, attr) {
			self := e.orderingSelf(int32(s), &e.ostats)
			self.AbandonSwap()
			continue
		}
		e.deliverSwap(int32(s), to, r, attr)
		if dup {
			// Duplication: the same request lands twice.
			e.faults.Counts.ChaosDups++
			e.deliverSwap(int32(s), to, r, attr)
		}
	}
	e.flushDeferred(overlapping)
}

// Prefetch lookaheads: the tick's distance in slots, the commit
// cursors' distances in swap requests. The tick prefetches only from
// a coordinate table of tickPrefetchIDs entries (2 MiB, a core's L2)
// up.
const (
	tickAhead       = 2
	tickPrefetchIDs = 1 << 18
	commitFar       = 16
	commitNear      = 8
)

// nextSwap returns the first ticked swap target at or after slot *c and
// moves *c past it, or returns 0 once the targets are exhausted.
func nextSwap(swapTo []core.ID, c *int) core.ID {
	for *c < len(swapTo) {
		to := swapTo[*c]
		*c++
		if to != 0 {
			return to
		}
	}
	return 0
}

// prefetchSlotOf prefetches id's slot-table entry, if it has one.
func (e *Engine) prefetchSlotOf(id core.ID) {
	if int(id) < len(e.slots) {
		prefetchAt(&e.slots[id])
	}
}

// prefetchTarget prefetches the columns a swap delivery to a live id
// reads and writes.
func (e *Engine) prefetchTarget(id core.ID) {
	if ts, live := e.slotOf(id); live {
		prefetchAt(&e.rs[ts])
		prefetchAt(&e.attrs[ts])
		prefetchAt(&e.ids[ts])
	}
}

// frozenSwap is slot s's swap request to `to` as it was ticked, for
// late delivery: the sender's snapshot coordinate, which no commit
// writes, and its attribute, which only the fault step (before
// membership) changes.
func (e *Engine) frozenSwap(s int32, to core.ID) deferredEnv {
	return deferredEnv{from: s, to: to, r: e.coordTab[e.ids[s]], attr: e.attrs[s]}
}

// flushDeferred delivers the cycle's overlapping and chaos-delayed
// messages in an engine-stream shuffled order; by then their payload
// and partner choice may be stale.
func (e *Engine) flushDeferred(overlapping []deferredEnv) {
	e.deferredBuf = overlapping[:0]
	e.rng.Shuffle(len(overlapping), func(i, j int) {
		overlapping[i], overlapping[j] = overlapping[j], overlapping[i]
	})
	isOrdering := e.isOrdering()
	for _, d := range overlapping {
		if e.net.Blocks(e.ids[d.from], d.to) {
			e.faults.Counts.PartitionDrops++
			e.Delivered.Dropped++
			continue
		}
		if !isOrdering {
			e.deliverRank(d.from, d.to, d.attr)
			continue
		}
		r := d.r
		if !e.cfg.StalePayloads {
			// The exchange executes on live values; only the partner
			// selection was stale. This keeps the swap two-sided and the
			// random-value multiset conserved, matching the paper's
			// Fig. 4(d).
			r = e.rs[d.from]
		}
		e.deliverSwap(d.from, d.to, r, d.attr)
	}
}

// swapStillHelps re-evaluates the receiver-side swap predicate of a
// refreshed request against the target's live state: the commit-time
// validation of an atomic exchange.
func (e *Engine) swapStillHelps(ts int32, r float64, attr core.Attr) bool {
	return ordering.Misplaced(e.attrs[ts], attr, e.rs[ts], r)
}

// deliverSwap routes one swap request to its destination and its reply
// straight back (the REQ/ACK round of Fig. 2). The initiator is live by
// construction — it ticked this cycle and churn never runs mid-cycle —
// so only the target can have departed.
func (e *Engine) deliverSwap(from int32, to core.ID, r float64, attr core.Attr) {
	ts, ok := e.slotOf(to)
	if !ok {
		e.Delivered.Dropped++
		return
	}
	e.Delivered.SwapRequests++
	recv := e.orderingSelf(ts, &e.ostats)
	rep, _ := recv.ApplySwapRequest(e.ids[from], proto.SwapRequest{R: r, Attr: attr})
	e.Delivered.SwapReplies++
	init := e.orderingSelf(from, &e.ostats)
	init.ApplySwapReply(to, rep)
}

// deliverRank routes one UPD message (Fig. 5) carrying the sender's
// attribute to its destination.
func (e *Engine) deliverRank(from int32, to core.ID, attr core.Attr) {
	ts, ok := e.slotOf(to)
	if !ok {
		e.Delivered.Dropped++
		return
	}
	e.Delivered.RankUpdates++
	self := e.rankingSelf(ts)
	self.ApplyRankUpdate(e.ids[from], attr)
}

// tickRanking runs the ranking compute phase: the view scan feeding
// each estimator and the two UPD target choices, in parallel. Targets
// land in the flat updTo store, stride 2 per slot, 0 = no update.
func (e *Engine) tickRanking(n int) {
	e.updTo = grow(e.updTo, 2*n)
	seed, cycle := e.cfg.Seed, uint64(e.cycle)
	coords := e.refreshCoordTab(n)
	e.parallelFor(n, func(w, lo, hi int) {
		ws := &e.ws[w]
		for s := lo; s < hi; s++ {
			ws.stream = nodeStream(seed, uint64(e.ids[s]), cycle, phaseProtocol)
			self := e.rankingSelf(int32(s))
			j1, j2, ok := self.TickTargetsFast(e.part, coords, &ws.stream, &ws.rscr)
			if !ok {
				e.updTo[2*s], e.updTo[2*s+1] = 0, 0
				continue
			}
			e.updTo[2*s], e.updTo[2*s+1] = j1, j2
		}
	})
}

// commitRanking applies the ranking deliveries across the workers.
// Each delivery writes only its TARGET's estimator state while reading
// its sender's attribute, which is immutable for the rest of the cycle,
// so deliveries to different targets are independent. A serial counting
// pre-pass settles every update's fate in slot order — partition drop,
// the chaos verdict (drop, delay, dup), departed target — and builds
// per-target delivery lists in ascending sender order, a duplicate being
// one more entry right after its original; each worker then applies its
// targets' lists. Chaos-delayed updates land after all of them, in
// flushDeferred. Per-target delivery order is fixed by slot order alone,
// so the commit is bit-identical at any worker count.
func (e *Engine) commitRanking(n int) {
	e.rankDst = grow(e.rankDst, 2*n)
	// dst[i] is update i's target slot shifted left by one, its low bit
	// set when chaos duplicates it; -1 when it is not delivered now.
	dst := e.rankDst
	delayed := e.deferredBuf[:0]
	delivered := uint64(0)
	for s := 0; s < n; s++ {
		from := e.ids[s]
		for k := 0; k < 2; k++ {
			i := 2*s + k
			to := e.updTo[i]
			dst[i] = -1
			if to == 0 {
				continue
			}
			if e.net.Blocks(from, to) {
				e.faults.Counts.PartitionDrops++
				e.Delivered.Dropped++
				continue
			}
			drop, delay, dup := e.chaos(from, to, uint64(k)+1)
			if drop {
				e.faults.Counts.ChaosDrops++
				e.Delivered.Dropped++
				continue
			}
			if delay {
				e.faults.Counts.ChaosDelays++
				delayed = append(delayed, deferredEnv{from: int32(s), to: to, attr: e.attrs[s]})
				continue
			}
			copies := int32(1)
			if dup {
				e.faults.Counts.ChaosDups++
				copies = 2
			}
			ts, live := e.slotOf(to)
			if !live {
				e.Delivered.Dropped += uint64(copies)
				continue
			}
			dst[i] = ts<<1 | (copies - 1)
			delivered += uint64(copies)
		}
	}
	e.Delivered.RankUpdates += delivered
	// Counting sort of the resolved updates by target slot (see
	// initHead); the encoded index 2·sender+k ascends within each
	// target's list, preserving the slot-order delivery sequence.
	e.initHead = grow(e.initHead, n+2)
	e.initList = grow(e.initList, int(delivered))
	head := e.initHead
	clear(head[:n+2])
	for _, d := range dst {
		if d >= 0 {
			head[d>>1+2] += 1 + d&1
		}
	}
	prefixSum(head[:n+2])
	for i, d := range dst {
		if d < 0 {
			continue
		}
		t := d>>1 + 1
		for c := int32(0); c <= d&1; c++ {
			e.initList[head[t]] = int32(i)
			head[t]++
		}
	}
	e.parallelFor(n, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			list := e.initList[head[t]:head[t+1]]
			if len(list) == 0 {
				continue
			}
			self := e.rankingSelf(int32(t))
			for _, enc := range list {
				s := enc >> 1
				self.ApplyRankUpdate(e.ids[s], e.attrs[s])
			}
		}
	})
	e.flushDeferred(delayed)
}

// record appends the cycle's measurements to the result series. The
// per-node reads (believed slices, rank tallies) fan out over the
// workers; sums reduce over fixed chunks in chunk order (floats) or
// per-worker tallies (integers), so recorded values are independent of
// the worker count. SDM reads the incrementally maintained attribute
// order: O(n), no sort.
func (e *Engine) record() {
	n := len(e.ids)
	e.believedBuf = grow(e.believedBuf, n)
	believed := e.believedBuf
	sb := grow(e.slotBelieved, n)
	e.slotBelieved = sb
	// Two passes: believed slices materialize in slot order first —
	// sequential reads of the coordinate column — then the members-order
	// gather reads 4-byte staged values.
	if e.isOrdering() {
		e.parallelFor(n, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				sb[s] = int32(e.part.Index(e.rs[s]))
			}
		})
	} else {
		e.parallelFor(n, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				sb[s] = int32(e.part.Index(e.ests[s].Estimate()))
			}
		})
	}
	e.parallelFor(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			believed[i] = sb[e.slots[e.members[i].ID]]
		}
	})
	sdm := e.chunkedSum(n, func(lo, hi int) float64 {
		return metrics.SDMSortedRange(believed, e.part, lo, hi)
	})
	e.sdm.Add(e.cycle, sdm)
	e.size.Add(e.cycle, float64(n))
	e.recordPollution(believed)
	if e.tel != nil {
		e.tel.cycle.Set(float64(e.cycle))
		e.tel.nodes.Set(float64(n))
		e.tel.sdm.Set(sdm)
		e.publishFaultTelemetry()
	}
	if e.cfg.RecordGDM {
		gdm := e.measureGDM()
		e.gdm.Add(e.cycle, gdm)
		if e.tel != nil {
			e.tel.gdm.Set(gdm)
		}
	}
	if e.isOrdering() {
		st := e.OrderingStats()
		e.unsucc.Add(e.cycle, st.UnsuccessfulPctSince(e.prevOrd))
		e.prevOrd = st
	}
}

// measureGDM computes the global disorder measure (§4.2) from the
// engine's own rank buffers: attribute ranks come straight off the
// incrementally maintained membership order (no sort), coordinate ranks
// from a bucket sort of the (R, ID) keys, and the squared-distance sum
// reduces over fixed chunks. Equivalent to metrics.GDM over States().
//
// The bucket sort replaces the comparison sort that dominated
// RecordGDM runs at scale (profiling at N=100k put it at over a third
// of the cycle): coordinates live in [0,1], so slots scatter into n
// buckets by ⌊r·n⌋ with a counting sort — stable in slot order — and
// each bucket's segment is refined by (R, ID) independently. ⌊r·n⌋ is
// monotone in r and equal coordinates share a bucket, so sorted
// segments concatenate into exactly the permutation the full sort
// produced — a strict total order has only one — while near-uniform
// coordinates (what the protocols converge to) make every segment O(1)
// and the whole pass O(n), with the refinement fanning out over the
// workers. Degenerate distributions (e.g. ranking's first cycles, when
// every estimate is still 0) collapse into one segment and fall back to
// the comparison sort's complexity, never worse.
func (e *Engine) measureGDM() float64 {
	n := len(e.ids)
	if n == 0 {
		return 0
	}
	e.alphaBuf = grow(e.alphaBuf, n)
	e.rhoBuf = grow(e.rhoBuf, n)
	e.rBuf = grow(e.rBuf, n)
	e.idxBuf = grow(e.idxBuf, n)
	e.bucketBuf = grow(e.bucketBuf, n)
	e.bucketHead = grow(e.bucketHead, n+2)
	alpha, rho, r, idx := e.alphaBuf, e.rhoBuf, e.rBuf, e.idxBuf
	bucket, head := e.bucketBuf, e.bucketHead
	e.parallelFor(n, func(_, lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			alpha[e.slots[e.members[pos].ID]] = int32(pos + 1)
		}
	})
	fn := float64(n)
	assign := func(s int, ri float64) {
		r[s] = ri
		b := int(ri * fn)
		if b < 0 {
			b = 0
		} else if b >= n {
			b = n - 1
		}
		bucket[s] = int32(b)
	}
	if e.isOrdering() {
		e.parallelFor(n, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				assign(s, e.rs[s])
			}
		})
	} else {
		e.parallelFor(n, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				assign(s, e.ests[s].Estimate())
			}
		})
	}
	// Counting scatter, stable in ascending slot order, through shifted
	// prefix sums as in initHead: head[b] ends at bucket b's start.
	clear(head[:n+2])
	for s := 0; s < n; s++ {
		head[bucket[s]+2]++
	}
	prefixSum(head[:n+2])
	for s := 0; s < n; s++ {
		b := bucket[s] + 1
		idx[head[b]] = int32(s)
		head[b]++
	}
	// Per-bucket refinement: independent segments, any worker split.
	e.parallelFor(n, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			if seg := idx[head[b]:head[b+1]]; len(seg) > 1 {
				sortByRID(seg, r, e.ids)
			}
		}
	})
	e.parallelFor(n, func(_, lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			rho[idx[pos]] = int32(pos + 1)
		}
	})
	return e.chunkedSum(n, func(lo, hi int) float64 {
		return metrics.GDMRange(alpha, rho, lo, hi)
	}) / float64(n)
}

// sortByRID orders a segment of arena slots by (coordinate, ID): the
// random-value sequence of the GDM definition, ties broken by the
// unique identifier. Buckets are tiny at steady state, so small
// segments take an insertion sort instead of sort.Slice's machinery.
func sortByRID(seg []int32, r []float64, ids []core.ID) {
	less := func(a, b int32) bool {
		if r[a] != r[b] {
			return r[a] < r[b]
		}
		return ids[a] < ids[b]
	}
	if len(seg) <= 24 {
		for i := 1; i < len(seg); i++ {
			for j := i; j > 0 && less(seg[j], seg[j-1]); j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
		return
	}
	sort.Slice(seg, func(i, j int) bool { return less(seg[i], seg[j]) })
}

// States snapshots every live node for measurement, in arena order. The
// caller owns the returned slice.
func (e *Engine) States() []metrics.NodeState {
	states := make([]metrics.NodeState, len(e.ids))
	for s := range states {
		r := e.coordAt(int32(s))
		states[s] = metrics.NodeState{Member: e.memberAt(int32(s)), R: r, SliceIndex: e.part.Index(r)}
	}
	return states
}

// Cycle returns the number of completed cycles.
func (e *Engine) Cycle() int { return e.cycle }

// N returns the current live system size.
func (e *Engine) N() int { return len(e.ids) }

// Partition returns the slice partition in force.
func (e *Engine) Partition() core.Partition { return e.part }

// SDM returns the slice disorder series (one point per completed cycle,
// plus the initial state at cycle 0).
func (e *Engine) SDM() metrics.Series { return e.sdm }

// GDM returns the global disorder series (empty unless RecordGDM).
func (e *Engine) GDM() metrics.Series { return e.gdm }

// UnsuccessfulPct returns, per cycle, the percentage of the swap
// requests received in that cycle whose predicate had expired on
// arrival (Fig. 4(c)), departed nodes included: the difference of two
// OrderingStats run totals.
func (e *Engine) UnsuccessfulPct() metrics.Series { return e.unsucc }

// Size returns the live-population series.
func (e *Engine) Size() metrics.Series { return e.size }

// OrderingStats returns the run totals of the ordering event counters,
// departed nodes included: the serial accumulator plus each worker's
// tick tally, added in worker order (integer sums, so the totals do not
// depend on the worker count).
func (e *Engine) OrderingStats() ordering.Stats {
	total := e.ostats
	for i := range e.ws {
		total.Add(e.ws[i].ostats)
	}
	return total
}

// Result bundles the series of a completed run.
type Result struct {
	SDM             metrics.Series
	GDM             metrics.Series
	UnsuccessfulPct metrics.Series
	Size            metrics.Series
	// Pollution is the per-cycle byzantine slice pollution (empty unless
	// the run's fault plan had a Byzantine family).
	Pollution metrics.Series
	Messages  MessageCounts
	// Faults tallies the injections the run's fault plan performed.
	Faults FaultCounts
	// Mem is the engine's memory budget at the end of the run.
	Mem MemReport
	// Phases is the cumulative per-phase wall-clock breakdown of the run
	// — every perf artifact carries its own "where the cycle time goes".
	Phases PhaseNanos
	FinalN int
}

// Run builds an engine from cfg, advances it the given number of cycles
// and returns the recorded series.
func Run(cfg Config, cycles int) (*Result, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.Run(cycles)
	return e.Result(), nil
}

// Result bundles the series recorded so far.
func (e *Engine) Result() *Result {
	return &Result{
		SDM:             e.SDM(),
		GDM:             e.GDM(),
		UnsuccessfulPct: e.UnsuccessfulPct(),
		Size:            e.Size(),
		Pollution:       e.Pollution(),
		Messages:        e.Delivered,
		Faults:          e.FaultTally(),
		Mem:             e.MemReport(),
		Phases:          e.Phases(),
		FinalN:          e.N(),
	}
}

// prefetchWindow asks the CPU to start loading every cache line of win
// and returns without waiting for any of them (see core.Prefetch). A
// nil or empty window is a no-op.
func prefetchWindow(win []view.Entry) { core.Prefetch(windowBytes(win)) }

// prefetchAt prefetches the bytes of *p (see core.Prefetch).
func prefetchAt[T any](p *T) { core.Prefetch(unsafe.Pointer(p), unsafe.Sizeof(*p)) }

// windowBytes is win as the byte range core.Prefetch takes.
func windowBytes(win []view.Entry) (unsafe.Pointer, uintptr) {
	return unsafe.Pointer(unsafe.SliceData(win)), uintptr(len(win)) * unsafe.Sizeof(view.Entry{})
}
