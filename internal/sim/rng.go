package sim

import "github.com/gossipkit/slicing/internal/core"

// This file derives the engine's counter-based randomness: one
// independent splitmix64 stream (core.Stream) per (run seed, node ID,
// cycle, phase).
//
// The serial engine threaded a single *rand.Rand through every node in
// permutation order, which made each node's draws depend on where the
// permutation happened to place it — correct, but impossible to
// parallelize without replaying the exact serial order. A per-node
// counter-based stream removes that dependency: the draws a node makes
// in a cycle are a pure function of (seed, id, cycle, phase), so any
// number of workers can compute any subset of nodes in any order and
// produce bit-identical results. Churn, bootstrap sampling and the
// overlapping-delivery shuffle stay on the engine's serial stream —
// they run in the single-threaded sections of a cycle where serial
// draws are cheap and order is fixed.

// Stream phases: draws made in different phases of the same cycle must
// not replay each other, so the phase participates in stream derivation.
const (
	phaseMembership uint64 = 1 // uniform-oracle view re-draws
	phaseProtocol   uint64 = 2 // overlap decision + slicing-step draws
)

// nodeStream derives the stream for one node's draws in one phase of one
// cycle. Each input is folded through the finalizer before the next is
// mixed in, so streams for adjacent IDs, cycles or phases are
// decorrelated (a single XOR of the raw values would make
// (id=1,cycle=0) and (id=0,cycle=1) collide for many seed choices).
func nodeStream(seed int64, id uint64, cycle uint64, phase uint64) core.Stream {
	s := core.Mix64(uint64(seed) + core.Golden)
	s = core.Mix64(s ^ id)
	s = core.Mix64(s ^ cycle)
	return core.StreamAt(s ^ phase*core.Golden)
}
