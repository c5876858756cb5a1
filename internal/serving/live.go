package serving

import (
	"sync/atomic"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/runtime"
)

// ClusterQuerier answers queries from live nodes, round-robin: every
// query is served by ONE node's local estimate — its own attribute and
// rank estimate anchor the interpolation, its gossip view supplies the
// remaining (attribute, rank) sample. This is exactly the information a
// real distributed node holds (the paper's "any node can answer"), so
// load spreads evenly and the answers exhibit exactly the per-node
// estimate variance a multi-node deployment would. WatchBoundary
// aggregates every node's crossings into one stream.
//
// The node set is snapshotted at construction: after churn, build a
// fresh querier (the serving path snapshots after warmup; a killed
// node answers from its frozen final state).
type ClusterQuerier struct {
	nodes []*runtime.Node
	part  core.Partition
	cal   Calibration
	next  atomic.Uint64
}

var _ SliceQuerier = (*ClusterQuerier)(nil)

// NewClusterQuerier wraps a cluster's current live nodes. A zero
// Calibration selects RankingCalibration (the conservative default: its
// residual floor is the tighter of the two, but its warmup inflation
// still dominates early answers).
func NewClusterQuerier(c *runtime.Cluster, cal Calibration) (*ClusterQuerier, error) {
	nodes := c.Nodes()
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	return newClusterQuerier(nodes, cal), nil
}

// NewNodeQuerier wraps one live node: a ClusterQuerier whose every
// answer comes from n. A zero Calibration selects RankingCalibration.
func NewNodeQuerier(n *runtime.Node, cal Calibration) *ClusterQuerier {
	return newClusterQuerier([]*runtime.Node{n}, cal)
}

func newClusterQuerier(nodes []*runtime.Node, cal Calibration) *ClusterQuerier {
	if cal == (Calibration{}) {
		cal = RankingCalibration
	}
	return &ClusterQuerier{nodes: nodes, part: nodes[0].Partition(), cal: cal}
}

// pick returns the next answering node round-robin.
func (q *ClusterQuerier) pick() *runtime.Node {
	i := q.next.Add(1) - 1
	return q.nodes[int(i%uint64(len(q.nodes)))]
}

// evidence reads one node's answer evidence: one Status and one
// ViewEntries call.
func (q *ClusterQuerier) evidence(n *runtime.Node) evidence {
	st := n.Status()
	entries := n.ViewEntries()
	return evidence{
		pts:     anchorsFrom(entries, float64(st.Attr), st.R),
		id:      st.ID,
		attr:    float64(st.Attr),
		rank:    st.R,
		slice:   st.SliceIx,
		viewLen: st.ViewLen,
		members: entries,
		ticks:   st.Ticks,
		samples: st.Samples,
		recvGap: st.RecvGap,
	}
}

// SliceOf implements SliceQuerier.
func (q *ClusterQuerier) SliceOf(attr float64) (SliceAnswer, error) {
	n := q.pick()
	if badAttr(attr) {
		return SliceAnswer{}, ErrBadAttr
	}
	ev := q.evidence(n)
	return sliceOf(&ev, q.part, q.cal, attr)
}

// TopK implements SliceQuerier.
func (q *ClusterQuerier) TopK(frac float64) (TopKAnswer, error) {
	n := q.pick()
	if badFrac(frac) {
		return TopKAnswer{}, ErrBadFrac
	}
	ev := q.evidence(n)
	return topK(&ev, q.cal, frac)
}

// Snapshot implements SliceQuerier.
func (q *ClusterQuerier) Snapshot() (Snapshot, error) {
	ev := q.evidence(q.pick())
	return snapshot(&ev, q.part, q.cal)
}

// WatchBoundary implements SliceQuerier: one merged stream of every
// node's boundary crossings, riding each node's OnSliceChange
// machinery. Events are delivered from the nodes' gossip goroutines; a
// full buffer drops the event rather than stalling gossip. Seq numbers
// the merged stream, so its gaps reveal drops.
func (q *ClusterQuerier) WatchBoundary() (<-chan BoundaryEvent, func(), error) {
	ch := make(chan BoundaryEvent, watchBuffer)
	var seq atomic.Uint64
	cancels := make([]func(), 0, len(q.nodes))
	for _, n := range q.nodes {
		cancel := n.OnSliceChange(func(id core.ID, old, new int) {
			ev := BoundaryEvent{Node: id, Old: old, New: new, Seq: seq.Add(1)}
			select {
			case ch <- ev:
			default:
			}
		})
		cancels = append(cancels, cancel)
	}
	return ch, func() {
		for _, cancel := range cancels {
			cancel()
		}
	}, nil
}

// watchBuffer is the event buffer of one WatchBoundary subscription.
const watchBuffer = 64
