package core

import "math/bits"

// RNG is the minimal source of randomness a protocol step consumes:
// uniform integers for partner selection and uniform floats for
// probability draws. *math/rand.Rand satisfies it, and so does *Stream,
// which both engines use: a protocol that takes an RNG instead of a
// concrete *rand.Rand can be driven either by a node-local serial
// generator (the live runtime's per-node Stream) or by an
// order-independent per-cycle derivation (the parallel simulator),
// without knowing which.
type RNG interface {
	// Intn returns a uniform int in [0,n). It panics if n <= 0.
	Intn(n int) int
	// Float64 returns a uniform float64 in [0,1).
	Float64() float64
}

// Mix64 is the splitmix64 finalizer (Steele, Lea & Flood): a full-period
// avalanche permutation of uint64.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Golden is the splitmix64 state increment (2^64 / φ, odd).
const Golden = 0x9E3779B97F4A7C15

// Stream is a splitmix64 generator: eight bytes of state, held by value.
// The zero value is a valid stream (seeded at state 0). The simulator
// derives one per node per cycle per phase; a live node keeps one for
// its lifetime (NodeStream). *Stream implements RNG.
type Stream struct{ state uint64 }

// StreamAt returns the stream positioned at the given raw state. Callers
// fold their own coordinates into the state with Mix64 first.
func StreamAt(state uint64) Stream { return Stream{state: state} }

// NodeStream derives the stream private to one node of one run. Each
// input is folded through the finalizer before the next is mixed in, so
// streams for adjacent IDs or seeds are decorrelated: (seed s, node i+1)
// and (seed s+1, node i) share nothing, which a plain seed+id sum would
// make identical.
func NodeStream(seed int64, id uint64) Stream {
	return Stream{state: Mix64(Mix64(uint64(seed)+Golden) ^ id)}
}

// Uint64 returns the next 64 uniform bits.
func (s *Stream) Uint64() uint64 {
	s.state += Golden
	return Mix64(s.state)
}

// Intn implements RNG: a uniform int in [0,n). It panics if n <= 0,
// matching math/rand. The implementation is Lemire's multiply-shift with
// the exact-rejection refinement, so the result is unbiased for every n.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("core: Stream.Intn called with n <= 0")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 implements RNG: a uniform float64 in [0,1) with 53 random
// bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}
