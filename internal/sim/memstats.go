package sim

import (
	"reflect"
	"unsafe"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/view"
)

// MemReport is the engine-side accounting of a run's memory budget: the
// deterministic structures the struct-of-arrays engine allocates per
// node, measured from slice capacities (what the engine reserves, not
// what a GC happens to have in flight). Every per-node byte the engine
// keeps between steps is in it (TestMemReportMatchesHeap); it leaves
// out process-level noise — goroutine stacks, allocator slack, an
// estimator's own buffers beyond its struct — which
// runtime.ReadMemStats covers; slicebench's -memstats flag prints both
// side by side.
type MemReport struct {
	// Nodes is the live population the report was taken at.
	Nodes int `json:"nodes"`
	// ArenaBytes is the flat view storage: every node's view entries in
	// one contiguous array.
	ArenaBytes int64 `json:"arenaBytes"`
	// StateBytes covers the per-slot columns: identifiers, attributes,
	// view headers, the ordering random values and swap counters or the
	// ranking estimators together with the struct each one points at,
	// plus the ID→slot table and the attribute-ordered membership.
	StateBytes int64 `json:"stateBytes"`
	// StagingBytes covers the reusable per-cycle buffers: the frozen
	// request/reply payload windows, the per-slot tick outputs, the
	// coordinate snapshot, the counting-sort lists and the measurement
	// buffers. A sampling batch's self entries and sampler table are not
	// among them: the batch drops them when it ends.
	StagingBytes int64 `json:"stagingBytes"`
	// BytesPerNode is the total of the three buckets over Nodes.
	BytesPerNode float64 `json:"bytesPerNode"`
}

// Total returns the accounted bytes.
func (m MemReport) Total() int64 { return m.ArenaBytes + m.StateBytes + m.StagingBytes }

func sliceBytes[T any](buf []T, elem T) int64 {
	return int64(cap(buf)) * int64(unsafe.Sizeof(elem))
}

// pointeeBytes is the size of the struct an interface value points at
// (0 when it holds no pointer): what one estimator costs on the heap.
func pointeeBytes(x any) int64 {
	if t := reflect.TypeOf(x); t != nil && t.Kind() == reflect.Pointer {
		return int64(t.Elem().Size())
	}
	return 0
}

// MemReport audits the engine's current memory budget.
func (e *Engine) MemReport() MemReport {
	var m MemReport
	m.Nodes = len(e.ids)
	m.ArenaBytes = e.varena.Bytes()

	m.StateBytes = sliceBytes(e.ids, core.ID(0)) +
		sliceBytes(e.attrs, core.Attr(0)) +
		sliceBytes(e.views, view.View{}) +
		sliceBytes(e.stats, ordering.Stats{}) +
		sliceBytes(e.rs, 0.0) +
		sliceBytes(e.ests, ranking.Estimator(nil)) +
		sliceBytes(e.slots, int32(0)) +
		sliceBytes(e.members, core.Member{})
	if e.ests != nil {
		// Each estimator is a heap object of its own.
		m.StateBytes += int64(len(e.ests)) * pointeeBytes(e.newEstimator())
	}

	m.StagingBytes = sliceBytes(e.believedBuf, int32(0)) +
		sliceBytes(e.slotBelieved, int32(0)) +
		sliceBytes(e.coordTab, 0.0) +
		sliceBytes(e.joinersBuf, core.Member{}) +
		sliceBytes(e.deferredBuf, deferredEnv{}) +
		sliceBytes(e.memTarget, int32(0)) +
		sliceBytes(e.reqStore, view.Entry{}) +
		sliceBytes(e.reqLen, int32(0)) +
		sliceBytes(e.initHead, int32(0)) +
		sliceBytes(e.initList, int32(0)) +
		sliceBytes(e.swapTo, core.ID(0)) +
		sliceBytes(e.overlapBuf, false) +
		sliceBytes(e.updTo, core.ID(0)) +
		sliceBytes(e.rankDst, int32(0)) +
		sliceBytes(e.chunkSums, 0.0) +
		sliceBytes(e.alphaBuf, int32(0)) +
		sliceBytes(e.rhoBuf, int32(0)) +
		sliceBytes(e.rBuf, 0.0) +
		sliceBytes(e.idxBuf, int32(0)) +
		sliceBytes(e.bucketBuf, int32(0)) +
		sliceBytes(e.bucketHead, int32(0))

	if m.Nodes > 0 {
		m.BytesPerNode = float64(m.Total()) / float64(m.Nodes)
	}
	return m
}
