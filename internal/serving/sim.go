package serving

import (
	"sync"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/sim"
	"github.com/gossipkit/slicing/internal/view"
)

// SimQuerier adapts the cycle simulator to the query plane, mainly so
// tests and scenario runs can exercise the serving contract without
// standing up goroutines. Unlike the live querier its anchors and top-k
// candidates come from engine.States() — the simulator's global oracle
// — so its answers are as good as the protocol state itself, with none
// of the bounded-view sampling error a live node adds. Treat it as the
// reference the live querier is measured against, not as a model of
// production accuracy. Its answers are built by the same functions as
// the live querier's, from evidence read under one lock: ticks are the
// engine cycle, samples and points the population's anchor count.
//
// The simulator is not safe for concurrent stepping, so the querier
// answers from an immutable snapshot taken by Refresh (and at
// construction): step the engine, call Refresh, query. Refresh also
// diffs believed slices against the previous snapshot and emits
// BoundaryEvents to watchers — the sim has no callback plumbing, so
// crossings are detected by comparison.
type SimQuerier struct {
	cal  Calibration
	part core.Partition

	mu       sync.Mutex
	cycle    int
	states   []metrics.NodeState
	members  []view.Entry // states as top-k candidates
	pts      []anchor
	next     uint64 // round-robin answering node
	believed map[core.ID]int
	watchers map[int]chan BoundaryEvent // WatchBoundary subscriptions
	nextID   int
	seq      uint64
}

var _ SliceQuerier = (*SimQuerier)(nil)

// NewSimQuerier snapshots the engine's current state. A zero
// Calibration selects RankingCalibration.
func NewSimQuerier(e *sim.Engine, cal Calibration) *SimQuerier {
	if cal == (Calibration{}) {
		cal = RankingCalibration
	}
	q := &SimQuerier{
		cal:      cal,
		part:     e.Partition(),
		believed: make(map[core.ID]int),
		watchers: make(map[int]chan BoundaryEvent),
	}
	q.Refresh(e)
	return q
}

// Refresh re-snapshots the engine (call it after stepping, with the
// engine quiescent) and notifies watchers of every node whose believed
// slice changed since the last snapshot. Each snapshot is built afresh
// and never written again, so an answer may keep reading it after the
// lock is released.
func (q *SimQuerier) Refresh(e *sim.Engine) {
	states := e.States()
	cycle := e.Cycle()

	pts := make([]anchor, 0, len(states))
	members := make([]view.Entry, len(states))
	for i, st := range states {
		pts = append(pts, anchor{attr: float64(st.Member.Attr), rank: clamp01(st.R)})
		members[i] = view.Entry{ID: st.Member.ID, Attr: st.Member.Attr, R: st.R}
	}
	pts = monotonize(pts)

	q.mu.Lock()
	defer q.mu.Unlock()
	var crossings []BoundaryEvent
	for _, st := range states {
		old, seen := q.believed[st.Member.ID]
		if seen && old != st.SliceIndex {
			crossings = append(crossings, BoundaryEvent{Node: st.Member.ID, Old: old, New: st.SliceIndex})
		}
		q.believed[st.Member.ID] = st.SliceIndex
	}
	q.cycle = cycle
	q.states = states
	q.members = members
	q.pts = pts
	for _, ev := range crossings {
		q.seq++
		ev.Seq = q.seq
		for _, ch := range q.watchers {
			select {
			case ch <- ev:
			default:
			}
		}
	}
}

// evidence reads one answer's evidence from the current snapshot under
// one lock, the answering node taken round-robin across the simulated
// population. An empty population yields no anchors: ErrNoEvidence.
func (q *SimQuerier) evidence() evidence {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.states) == 0 {
		return evidence{}
	}
	self := q.states[int(q.next%uint64(len(q.states)))]
	q.next++
	return evidence{
		pts:     q.pts,
		id:      self.Member.ID,
		attr:    float64(self.Member.Attr),
		rank:    self.R,
		slice:   self.SliceIndex,
		viewLen: len(q.pts) - 1,
		members: q.members,
		ticks:   q.cycle,
		samples: len(q.pts),
	}
}

// SliceOf implements SliceQuerier.
func (q *SimQuerier) SliceOf(attr float64) (SliceAnswer, error) {
	if badAttr(attr) {
		return SliceAnswer{}, ErrBadAttr
	}
	ev := q.evidence()
	return sliceOf(&ev, q.part, q.cal, attr)
}

// TopK implements SliceQuerier.
func (q *SimQuerier) TopK(frac float64) (TopKAnswer, error) {
	if badFrac(frac) {
		return TopKAnswer{}, ErrBadFrac
	}
	ev := q.evidence()
	return topK(&ev, q.cal, frac)
}

// Snapshot implements SliceQuerier.
func (q *SimQuerier) Snapshot() (Snapshot, error) {
	ev := q.evidence()
	return snapshot(&ev, q.part, q.cal)
}

// WatchBoundary implements SliceQuerier. Crossings are detected (and
// delivered, synchronously) by Refresh.
func (q *SimQuerier) WatchBoundary() (<-chan BoundaryEvent, func(), error) {
	ch := make(chan BoundaryEvent, watchBuffer)
	q.mu.Lock()
	id := q.nextID
	q.nextID++
	q.watchers[id] = ch
	q.mu.Unlock()
	return ch, func() {
		q.mu.Lock()
		delete(q.watchers, id)
		q.mu.Unlock()
	}, nil
}
