// Package view implements the bounded partial views gossip protocols
// maintain: fixed-capacity sets of neighbor entries carrying an age, the
// neighbor's attribute value and its current rank estimate or random
// value (Table 1 of the paper).
package view

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/gossipkit/slicing/internal/core"
)

// ErrCapacity is returned when a view with non-positive capacity is
// requested.
var ErrCapacity = errors.New("view: capacity must be positive")

// maxCapacity bounds the view capacity. Far above any gossip view size
// (the paper uses c ≈ log n; the repo's largest scenario uses 40).
const maxCapacity = 1<<15 - 1

// AgeUnknown marks a placeholder entry: a contact address learned out of
// band (operator-supplied bootstrap) whose attribute and coordinate are
// not yet known. Placeholders are valid gossip targets — being maximally
// old they are contacted first — but they are not data points: protocols
// skip them when sampling attributes, and any real entry for the same
// node replaces them.
const AgeUnknown uint32 = ^uint32(0)

// Entry is one row of a node's view: the array of Table 1 in the paper.
// It is 24 bytes with the ID in its first word, so the duplicate scan of
// a gossip merge (findID) reads IDs straight out of the entry array.
type Entry struct {
	// ID identifies the neighbor.
	ID core.ID
	// Age is a freshness timestamp: 0 when the entry is created by the
	// neighbor itself, incremented once per gossip period. AgeUnknown
	// marks a placeholder.
	Age uint32
	// Attr is the neighbor's attribute value.
	Attr core.Attr
	// R is the neighbor's normalized-rank coordinate: its random value
	// under the ordering protocols, its rank estimate under the ranking
	// protocol.
	R float64
}

// Placeholder reports whether the entry is an identity-only bootstrap
// contact (see AgeUnknown).
func (e Entry) Placeholder() bool { return e.Age == AgeUnknown }

// Member returns the entry's identity/attribute pair.
func (e Entry) Member() core.Member { return core.Member{ID: e.ID, Attr: e.Attr} }

// View is a bounded set of entries with unique IDs. It is not safe for
// concurrent use; callers synchronize externally (the runtime wraps each
// node in a mutex, the simulator is single-threaded).
type View struct {
	capacity int
	entries  []Entry
}

// New returns an empty view with the given capacity c (the paper's view
// size; all nodes share the same c).
func New(capacity int) (*View, error) {
	if capacity < 1 || capacity > maxCapacity {
		return nil, ErrCapacity
	}
	return &View{
		capacity: capacity,
		entries:  make([]Entry, 0, capacity),
	}, nil
}

// MustNew is New for static configuration; it panics on error.
func MustNew(capacity int) *View {
	v, err := New(capacity)
	if err != nil {
		panic(err)
	}
	return v
}

// NewBound returns an empty view of the given capacity over
// caller-provided backing storage: an arena block (see Arena.Block),
// passed as a zero-length slice whose capacity is at least the view
// capacity. The view never allocates entry storage of its own. The
// second and third blocks are ignored: they are Arena.Block's retired
// ID-mirror and permutation columns, kept in the signature until a
// benchmark-maintenance change drops them from benchmark/kernels.go too.
func NewBound(capacity int, entries []Entry, _ []core.ID, _ []int16) *View {
	if capacity < 1 || capacity > maxCapacity || cap(entries) < capacity {
		panic(ErrCapacity)
	}
	return &View{capacity: capacity, entries: entries[:0]}
}

// Len returns the number of entries currently held.
func (v *View) Len() int { return len(v.entries) }

// Cap returns the view capacity.
func (v *View) Cap() int { return v.capacity }

// Entries returns a copy of the entries.
func (v *View) Entries() []Entry {
	out := make([]Entry, len(v.entries))
	copy(out, v.entries)
	return out
}

// AppendEntries appends every entry to buf and returns it. Protocol hot
// paths pass a reusable scratch slice (buf[:0]) here instead of calling
// Entries, so a per-cycle view snapshot costs no allocation once the
// scratch has grown to view size.
func (v *View) AppendEntries(buf []Entry) []Entry {
	return append(buf, v.entries...)
}

// Raw exposes the backing entry slice without copying. Read-only, and
// valid only until the next mutating call: protocol hot paths that scan
// the view once per tick (partner selection, estimator feeds) use it to
// avoid a per-tick snapshot copy. Callers that mutate the view while
// iterating must use AppendEntries instead.
func (v *View) Raw() []Entry { return v.entries }

// Block exposes the view's entry array at full capacity, for callers
// that prefetch it by address. New allocates it at capacity and no
// mutation grows it past that, so a New view's block stays put for its
// whole life (a bound view's moves with Rebind).
func (v *View) Block() []Entry { return v.entries[:cap(v.entries)] }

// Get returns the entry for id, if present.
func (v *View) Get(id core.ID) (Entry, bool) {
	if i := v.index(id); i >= 0 {
		return v.entries[i], true
	}
	return Entry{}, false
}

// Has reports whether id is in the view.
func (v *View) Has(id core.ID) bool { return v.index(id) >= 0 }

func (v *View) index(id core.ID) int { return findID(v.entries, id) }

// findID returns the index of id in entries, or -1: the duplicate scan
// run once per incoming entry on every gossip merge. Each probe is the
// first word of a 24-byte entry, so a view of c ≈ 20 rows is scanned
// in about eight cache lines.
func findID(entries []Entry, id core.ID) int {
	for i := range entries {
		if entries[i].ID == id {
			return i
		}
	}
	return -1
}

// Add inserts or replaces the entry for e.ID. When the view is full and
// the ID is new, the oldest entry is evicted.
func (v *View) Add(e Entry) {
	if i := v.index(e.ID); i >= 0 {
		v.entries[i] = e
		return
	}
	if len(v.entries) >= v.capacity {
		v.evictOldest()
	}
	v.entries = append(v.entries, e)
}

// Remove deletes the entry for id, reporting whether it was present.
func (v *View) Remove(id core.ID) bool {
	i := v.index(id)
	if i < 0 {
		return false
	}
	v.entries = append(v.entries[:i], v.entries[i+1:]...)
	return true
}

// UpdateR overwrites the rank coordinate recorded for id (Fig. 2 line 11:
// on receiving an ACK the initiator refreshes r_j in its view).
func (v *View) UpdateR(id core.ID, r float64) bool {
	i := v.index(id)
	if i < 0 {
		return false
	}
	v.entries[i].R = r
	return true
}

// AgeAll increments the age of every entry (Fig. 3 line 1).
// Placeholders stay at AgeUnknown.
func (v *View) AgeAll() {
	for i := range v.entries {
		if v.entries[i].Age != AgeUnknown {
			v.entries[i].Age++
		}
	}
}

// AgeAllOldest fuses AgeAll with Oldest: one read-modify pass over the
// entries instead of two, for the gossip pattern that always runs them
// back to back (age the view, pick the oldest partner). Identical
// outcomes: ages compare post-increment either way (every real age
// moves by one) and ties resolve earliest-stored, while placeholders
// keep AgeUnknown and win the maximum as before.
func (v *View) AgeAllOldest() (Entry, bool) {
	if len(v.entries) == 0 {
		return Entry{}, false
	}
	best, bestAge := 0, uint32(0)
	for i := range v.entries {
		a := v.entries[i].Age
		if a != AgeUnknown {
			a++
			v.entries[i].Age = a
		}
		if i == 0 || a > bestAge {
			best, bestAge = i, a
		}
	}
	return v.entries[best], true
}

// Random returns a uniformly random entry. Its one caller is
// membership.Newscast, kept only for the benchmark's
// membership.newscast_exchange_ns row; it goes with that row.
func (v *View) Random(rng core.RNG) (Entry, bool) {
	if len(v.entries) == 0 {
		return Entry{}, false
	}
	return v.entries[rng.Intn(len(v.entries))], true
}

// evictOldest removes the entry with maximal age.
func (v *View) evictOldest() {
	if len(v.entries) == 0 {
		return
	}
	best := 0
	for i := range v.entries {
		if v.entries[i].Age > v.entries[best].Age {
			best = i
		}
	}
	v.entries = append(v.entries[:best], v.entries[best+1:]...)
}

// Reset replaces the view's contents wholesale with the given entries —
// the bulk bootstrap path. The entries must be at most capacity, carry
// distinct IDs and not describe the view's owner (a sampler's output
// already is all three); the result is then identical to Clear followed
// by Add of each entry, minus Add's per-entry duplicate scan.
func (v *View) Reset(entries []Entry) {
	if len(entries) > v.capacity {
		panic(ErrCapacity)
	}
	v.entries = append(v.entries[:0], entries...)
}

// MergeScratch is reusable working storage for the scratch-based and
// fused merge variants: one per worker in the simulator, so merging
// into arena-backed views allocates nothing at steady state.
type MergeScratch struct {
	work []Entry
	ages []uint32
	// Fused-merge classification buffers (MergeCompact/MergeReply).
	fresh  []Entry
	upgIx  []int32
	upgEnt []Entry
	// trimHist backs unionTrimThreshold's bounded age histogram; keeping
	// it here (per worker) lets the kernel clear only the populated
	// prefix instead of re-zeroing a stack table every merge.
	trimHist [trimMaxAge + 1]int32
}

// uniqueBits is log2 of UniqueIDs' bitset size: 1,024 bits, so a
// view-sized batch (c+1 ≈ 21 IDs) rarely hashes two IDs onto one bit.
const uniqueBits = 10

// UniqueIDs reports whether no two entries of batch share an ID — the
// precondition of MergeCompact, which the live envelope path checks on
// every wire batch before taking the fused kernel (an honest peer's
// batch always passes; a hostile or corrupted one may not). Each ID is
// hashed onto one bit of a 128-byte stack bitset; only a bit already set
// costs an exact scan of the entries before it, so the answer is exact
// and the call allocates nothing.
func UniqueIDs(batch []Entry) bool {
	var seen [1 << (uniqueBits - 6)]uint64
	for i := range batch {
		h := uint64(batch[i].ID) * 0x9E3779B97F4A7C15 >> (64 - uniqueBits)
		w, bit := h>>6, uint64(1)<<(h&63)
		if seen[w]&bit != 0 && containsID(batch[:i], batch[i].ID) {
			return false
		}
		seen[w] |= bit
	}
	return true
}

// containsID is UniqueIDs' exact fallback on a bitset collision.
func containsID(entries []Entry, id core.ID) bool {
	for i := range entries {
		if entries[i].ID == id {
			return true
		}
	}
	return false
}

// MergeUsing incorporates entries received from a gossip exchange,
// following the Cyclon-variant rules of Fig. 3: entries whose ID already
// appears in the view are dropped (the local version wins), entries
// describing self are dropped, and the result is trimmed back to
// capacity by evicting the oldest entries. A local placeholder is always
// replaced by a real incoming entry — a contact address is not data
// worth keeping. The over-filled intermediate set lives in scr and only
// the trimmed survivors — at most capacity entries — are written back,
// so the view's own storage (an arena block, or a live node's heap
// slices) never grows. Incoming may repeat IDs, as a hostile or
// duplicated wire batch can. This is the reference path: the fused
// MergeCompact/MergeReply kernels are property-tested against it, and it
// against the grow-then-evict oracle in merge_oracle_test.go. The live
// envelope path falls back to it for a batch that fails UniqueIDs.
func (v *View) MergeUsing(incoming []Entry, self core.ID, scr *MergeScratch) {
	work := append(scr.work[:0], v.entries...)
	for _, e := range incoming {
		if e.ID == self {
			continue
		}
		if i := findID(work, e.ID); i >= 0 {
			if work[i].Placeholder() && !e.Placeholder() {
				work[i] = e
			}
			continue
		}
		work = append(work, e)
	}
	if k := len(work) - v.capacity; k > 0 {
		thresh, quota := unionTrimThreshold(work, nil, k, &scr.ages, &scr.trimHist)
		work = removeByThreshold(work, thresh, quota)
	}
	v.entries = append(v.entries[:0], work...)
	scr.work = work
}

// MergeFreshUsing incorporates entries keeping, for duplicated IDs, the
// entry with the smaller age (Newscast-style freshest-wins), then trims
// to the freshest capacity entries — on scratch storage, like MergeUsing.
// Only membership.Newscast and the benchmark's
// membership.newscast_exchange_ns row reach it; it goes with that row.
func (v *View) MergeFreshUsing(incoming []Entry, self core.ID, scr *MergeScratch) {
	work := append(scr.work[:0], v.entries...)
	for _, e := range incoming {
		if e.ID == self {
			continue
		}
		if i := findID(work, e.ID); i >= 0 {
			if e.Age < work[i].Age {
				work[i] = e
			}
			continue
		}
		work = append(work, e)
	}
	if len(work) > v.capacity {
		sort.SliceStable(work, func(i, j int) bool {
			return work[i].Age < work[j].Age
		})
		work = work[:v.capacity]
	}
	v.entries = append(v.entries[:0], work...)
	scr.work = work
}

// MergeCompact is MergeUsing fused into a single pass over the view's
// own storage: incoming entries are classified against the resident
// entries first (keep-known-duplicate, placeholder upgrade), the trim
// threshold comes from one age histogram over the union, and the
// survivors are compacted in place — the arena block is touched once
// per commit instead of the copy-out / trim / copy-back of the scratch
// path. Entry-for-entry identical to MergeUsing on ID-unique incoming
// batches — the only kind a gossip exchange produces (one view's
// entries plus at most the sender's fresh self entry; views cannot hold
// duplicates) — which is a precondition here: the scratch variants scan
// the growing work set per entry, this one does not. The simulator's
// exchange round meets it by construction; the live envelope path
// (membership.Cyclon) receives wire batches, so it checks UniqueIDs
// first and merges a batch that repeats an ID through MergeUsing
// instead.
func (v *View) MergeCompact(incoming []Entry, self core.ID, scr *MergeScratch) {
	v.mergeCompact(incoming, self, scr, nil)
}

// MergeReply is MergeCompact fused with the exchange round's reply
// capture: before anything mutates it writes the current entries —
// exactly what AppendEntries would have produced — into replyDst and
// returns their count. replyDst may overlap incoming (the engine reuses
// the absorbed request's payload window): the incoming entries are
// fully classified before the reply is written.
func (v *View) MergeReply(incoming []Entry, self core.ID, scr *MergeScratch, replyDst []Entry) int {
	return v.mergeCompact(incoming, self, scr, replyDst)
}

func (v *View) mergeCompact(incoming []Entry, self core.ID, scr *MergeScratch, replyDst []Entry) int {
	n0 := len(v.entries)
	fresh := scr.fresh[:0]
	upgIx, upgEnt := scr.upgIx[:0], scr.upgEnt[:0]
	// Pass 1: classify every incoming entry against the resident entries.
	// Nothing is mutated yet — the reply must read the pre-merge view,
	// and incoming may alias replyDst. Incoming is ID-unique by the
	// caller's contract (a gossip payload is one view's entries plus at
	// most the sender's own), so no within-batch duplicate scan runs.
	// A 64-bit Bloom signature over the resident IDs gates the duplicate
	// scan: at gossip scale views barely overlap, so nearly every
	// incoming entry is fresh and skips findID on a one-bit test.
	// The same two loops double as the trim's histogram pass — every
	// resident and every admitted entry is in hand exactly once here, so
	// the age counts fall out for free and unionTrimThreshold's separate
	// walks over the union are skipped (the fused trim).
	hist := &scr.trimHist
	clear(hist[:])
	histMax, histOver := uint32(0), 0
	var sig uint64
	resident := v.entries
	for i := range resident {
		sig |= 1 << (uint64(resident[i].ID) & 63)
		if age := resident[i].Age; age > trimMaxAge {
			histOver++
		} else {
			hist[age]++
			if age > histMax {
				histMax = age
			}
		}
	}
	for _, e := range incoming {
		if e.ID == self {
			continue
		}
		if sig&(1<<(uint64(e.ID)&63)) != 0 {
			if i := findID(resident, e.ID); i >= 0 {
				if resident[i].Placeholder() && !e.Placeholder() {
					upgIx = append(upgIx, int32(i))
					upgEnt = append(upgEnt, e)
				}
				continue
			}
		}
		fresh = append(fresh, e)
		if age := e.Age; age > trimMaxAge {
			histOver++
		} else {
			hist[age]++
			if age > histMax {
				histMax = age
			}
		}
	}
	scr.fresh, scr.upgIx, scr.upgEnt = fresh, upgIx, upgEnt
	replyLen := 0
	if replyDst != nil {
		replyLen = copy(replyDst, v.entries)
	}
	// Placeholder upgrades replace in place: same ID, real data. They
	// join the trim below with their new ages, as the scratch path's
	// work set did.
	for k, ix := range upgIx {
		v.entries[ix] = upgEnt[k]
	}
	k := n0 + len(fresh) - v.capacity
	if k <= 0 {
		// No trim: append the survivors.
		v.entries = append(v.entries, fresh...)
		return replyLen
	}
	// Trim: find the k-th-largest-age threshold over the union (the
	// histogram walk, or the exact fallback past trimMaxAge), then
	// compact survivors in place: existing entries first, admitted
	// entries appended, the at-threshold quota consumed earliest-stored
	// first. That is removeByThreshold's order over [existing..., new...].
	// The classify loops above already counted the union's age multiset;
	// only a placeholder upgrade (which rewrites a resident age after the
	// count) forces the standalone histogram pass.
	var thresh uint32
	var quota int
	if len(upgIx) == 0 {
		thresh, quota = thresholdFromHist(hist, histMax, histOver, k,
			v.entries, fresh, &scr.ages)
	} else {
		thresh, quota = unionTrimThreshold(v.entries, fresh, k, &scr.ages, hist)
	}
	ent := v.entries[:cap(v.entries)]
	w := 0
	// Branch-free compaction: the age tests are data-random, so a
	// predicated write-always/advance-conditionally loop beats
	// branching (the rankMembers reasoning). The store is guarded by
	// `w < len(ent)` — the arena block is exactly sized, so once the
	// survivors fill it the (now pointless) stores must stop. That
	// branch flips at most once per merge, so it predicts perfectly,
	// while the data-random age tests stay predicated. Compaction is
	// in place: the write cursor w never passes the read cursor, and
	// the fresh entries live in scratch. Semantics are
	// removeByThreshold's: evict over-threshold ages plus the first
	// `quota` at-threshold entries in storage order.
	for i := 0; i < n0; i++ {
		e := ent[i]
		var older, at, hasQ int
		if e.Age > thresh {
			older = 1
		}
		if e.Age == thresh {
			at = 1
		}
		if quota > 0 {
			hasQ = 1
		}
		use := at & hasQ
		quota -= use
		if w < len(ent) {
			ent[w] = e
		}
		w += 1 - (older | use)
	}
	for _, e := range fresh {
		var older, at, hasQ int
		if e.Age > thresh {
			older = 1
		}
		if e.Age == thresh {
			at = 1
		}
		if quota > 0 {
			hasQ = 1
		}
		use := at & hasQ
		quota -= use
		if w < len(ent) {
			ent[w] = e
		}
		w += 1 - (older | use)
	}
	v.entries = ent[:w]
	return replyLen
}

// unionTrimThreshold finds what removing the k oldest entries of the
// union a∪b means: the k-th-largest age, and how many entries aged
// exactly that must go with everything older. removeByThreshold (or
// mergeCompact's in-place twin) then leaves exactly the survivors k
// repeated evictOldest calls would, in one pass instead of O(k·n) with a
// memmove per eviction — every gossip merge over-fills the view by up to
// capacity+1 entries. The threshold comes from a small counting
// histogram: gossiped entries are nearly always young (an entry older
// than the view turnover time has long been evicted), so ages
// concentrate near zero and the O(n + trimMaxAge) count beats any
// comparison select. The union is never materialized: the histogram
// (and the exact over-limit fallback) sees the same age multiset either
// way. Requires 0 < k ≤ len(a)+len(b).
func unionTrimThreshold(a, b []Entry, k int, ageScratch *[]uint32, hist *[trimMaxAge + 1]int32) (uint32, int) {
	// hist is persistent per-worker scratch: a first cheap pass finds the
	// union's max in-range age, and only that prefix is cleared, counted,
	// and scanned. Gossip ages sit far below the clamp — an entry is
	// replaced long before its age approaches it — so the bounded walk
	// skips most of the table on every merge.
	mx, over := uint32(0), 0
	for i := range a {
		if age := a[i].Age; age > trimMaxAge {
			over++
		} else if age > mx {
			mx = age
		}
	}
	for i := range b {
		if age := b[i].Age; age > trimMaxAge {
			over++
		} else if age > mx {
			mx = age
		}
	}
	buckets := hist[:mx+1]
	clear(buckets)
	for i := range a {
		if age := a[i].Age; age <= trimMaxAge {
			buckets[age]++
		}
	}
	for i := range b {
		if age := b[i].Age; age <= trimMaxAge {
			buckets[age]++
		}
	}
	return thresholdFromHist(hist, mx, over, k, a, b, ageScratch)
}

// thresholdFromHist finishes the threshold selection over an
// already-counted age histogram: mx is the largest in-range age, over
// the number of over-limit (clamped or placeholder) ages in the union
// a∪b. mergeCompact calls this directly with the counts its classify
// loops accumulated in passing; unionTrimThreshold builds the histogram
// standalone first.
func thresholdFromHist(hist *[trimMaxAge + 1]int32, mx uint32, over, k int, a, b []Entry, ageScratch *[]uint32) (uint32, int) {
	if k <= over {
		// Threshold falls among the (rare) over-limit ages: a descending
		// insertion sort of the raw ages finds the exact k-th largest.
		ages := (*ageScratch)[:0]
		for i := range a {
			ages = append(ages, a[i].Age)
		}
		for i := range b {
			ages = append(ages, b[i].Age)
		}
		*ageScratch = ages
		sortAgesDesc(ages)
		thresh := ages[k-1]
		quota := 0
		for _, age := range ages[:k] {
			if age == thresh {
				quota++
			}
		}
		return thresh, quota
	}
	remaining := k - over
	for age := int(mx); age >= 0; age-- {
		n := int(hist[age])
		if remaining <= n {
			return uint32(age), remaining
		}
		remaining -= n
	}
	return 0, 0 // unreachable: k ≤ len(a)+len(b)
}

// trimMaxAge is the trim histogram's last bucket; older ages (and the
// AgeUnknown placeholder marker) are only counted as over-limit.
const trimMaxAge = 63

// removeByThreshold drops every entry older than thresh plus the first
// removeAtThresh entries aged exactly thresh, preserving the survivors'
// order: the scratch merge's compaction, spelling out the evictOldest
// tie-break (earliest-stored goes first) that mergeCompact's predicated
// loop must match.
func removeByThreshold(entries []Entry, thresh uint32, removeAtThresh int) []Entry {
	kept := entries[:0]
	for _, e := range entries {
		if e.Age > thresh {
			continue
		}
		if e.Age == thresh && removeAtThresh > 0 {
			removeAtThresh--
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// sortAgesDesc is thresholdFromHist's descending insertion sort;
// view-sized inputs are far below any cutover to a fancier sort.
func sortAgesDesc(ages []uint32) {
	for i := 1; i < len(ages); i++ {
		a := ages[i]
		j := i - 1
		for j >= 0 && ages[j] < a {
			ages[j+1] = ages[j]
			j--
		}
		ages[j+1] = a
	}
}

// Rebind moves the view's contents onto new backing storage — an arena
// block (see Arena.Block) passed as a zero-length slice with capacity of
// at least the current length. Overlapping old and new storage is fine
// (churn's swap-delete moves a view between slots of the same arena);
// the copy is memmove-safe. The second and third blocks are ignored, as
// in NewBound.
func (v *View) Rebind(entries []Entry, _ []core.ID, _ []int16) {
	v.entries = append(entries, v.entries...)
}

// Clone returns a deep copy of the view.
func (v *View) Clone() *View {
	c := &View{capacity: v.capacity, entries: make([]Entry, len(v.entries))}
	copy(c.entries, v.entries)
	return c
}

// Validate checks the view invariants: unique IDs and size within
// capacity. It is exercised by property tests.
func (v *View) Validate() error {
	if len(v.entries) > v.capacity {
		return fmt.Errorf("view: %d entries exceed capacity %d", len(v.entries), v.capacity)
	}
	seen := make(map[core.ID]bool, len(v.entries))
	for _, e := range v.entries {
		if seen[e.ID] {
			return fmt.Errorf("view: duplicate entry for %v", e.ID)
		}
		seen[e.ID] = true
	}
	return nil
}

// String implements fmt.Stringer.
func (v *View) String() string {
	parts := make([]string, len(v.entries))
	for i, e := range v.entries {
		parts[i] = fmt.Sprintf("%v(age=%d)", e.ID, e.Age)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
