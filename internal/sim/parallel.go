package sim

import (
	"sync"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/view"
)

// This file holds the engine's parallel-execution primitives. The
// determinism contract they uphold: the worker count may change WHICH
// goroutine computes a slot or a chunk, but never WHAT is computed or
// in what order results are combined —
//
//   - parallelFor passes the worker index to fn strictly for
//     worker-local scratch; every output is written to a per-slot
//     location owned by exactly one worker, so range splits cannot
//     change results.
//   - chunkedSum reduces floating-point partial sums over fixed-size
//     chunks (a function of n only, never of the worker count) and adds
//     them in chunk order, so totals are bit-identical at any worker
//     count. Integer tallies don't need chunking — integer addition is
//     exact and commutative — and reduce over per-worker fields.

// simWorker is one worker's scratch block: a private rejection sampler
// for the oracle round, merge/tick scratch for the compute and commit
// phases (shared across every node the worker drives, so a million
// value-stored nodes don't each grow private buffers), and integer
// partial tallies for the reduce steps.
type simWorker struct {
	sampler sampler
	merge   view.MergeScratch
	oscr    ordering.Scratch
	rscr    ranking.Scratch
	// stream holds the current node's derived RNG stream. Compute phases
	// pass it to protocol code through the core.RNG interface; parking it
	// here instead of in a loop-local keeps the interface conversion from
	// heap-allocating a fresh 8-byte box per node per cycle.
	stream core.Stream
	// ostats is the ordering event tally of the ticks this worker ran;
	// see Engine.OrderingStats.
	ostats ordering.Stats

	dropped    uint64
	partDrops  uint64
	chaosDrops uint64
}

// parallelFor splits [0, n) into one contiguous range per worker and
// runs fn on each concurrently, blocking until all complete. With one
// worker (or n ≤ 1) it runs inline — the single-threaded engine never
// pays goroutine overhead. fn receives the worker index (for scratch in
// e.ws) and its half-open range.
func (e *Engine) parallelFor(n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// reduceChunk is the fixed chunk size of every floating-point parallel
// reduction. It must never depend on the worker count; see the file
// comment.
const reduceChunk = 8192

// chunkedSum evaluates part over the fixed-size chunks of [0, n) in
// parallel and returns the chunk sums added in chunk order.
func (e *Engine) chunkedSum(n int, part func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	chunks := (n + reduceChunk - 1) / reduceChunk
	e.chunkSums = grow(e.chunkSums, chunks)
	sums := e.chunkSums
	e.parallelFor(chunks, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			a := c * reduceChunk
			sums[c] = part(a, min(a+reduceChunk, n))
		}
	})
	total := 0.0
	for _, s := range sums {
		total += s
	}
	return total
}

// grow returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified; callers overwrite every slot
// they read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// prefixSum turns per-bucket counts into running totals in place.
func prefixSum(head []int32) {
	for i := 1; i < len(head); i++ {
		head[i] += head[i-1]
	}
}
