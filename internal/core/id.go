package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// ID uniquely identifies a node. IDs are totally ordered; the order is
// used to break ties between equal attribute values so that the
// attribute-based sequence is a total order. IDs are 32-bit, which keeps
// a view entry at 24 bytes; engines assign them from 1, and 0 names no
// node. The wire format carries 8-byte IDs, so every boundary that reads
// one converts it with IDOf.
type ID uint32

// MaxID is the largest node ID.
const MaxID ID = math.MaxUint32

// ErrIDRange reports an ID past MaxID: one read from the wire or a
// command line, or the next ID an engine would assign after MaxID.
var ErrIDRange = errors.New("node ID out of range")

// IDOf converts a 64-bit wire or command-line value to an ID. A value
// past MaxID is an error and is never truncated: truncation would alias
// two nodes.
func IDOf(u uint64) (ID, error) {
	if u > uint64(MaxID) {
		return 0, fmt.Errorf("%w: %d > %d", ErrIDRange, u, uint64(MaxID))
	}
	return ID(u), nil
}

// String implements fmt.Stringer.
func (id ID) String() string { return "n" + strconv.FormatUint(uint64(id), 10) }

// Attr is a node attribute value: the capability metric the network is
// sliced by (bandwidth, uptime, storage, ...). Any real value is legal;
// distributions may be arbitrarily skewed.
type Attr float64

// Member pairs a node identity with its attribute value. It is the unit
// of the attribute-based total order.
type Member struct {
	ID   ID
	Attr Attr
}

// Less reports whether member a precedes member b in the attribute-based
// total order: a_i < a_j, or a_i = a_j and i < j (paper §3.1).
func Less(a, b Member) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	return a.ID < b.ID
}

// SortMembers sorts members in place by the attribute-based total order.
func SortMembers(members []Member) {
	sort.Slice(members, func(i, j int) bool { return Less(members[i], members[j]) })
}

// Ranks returns the 1-based attribute rank α_i of every member: the index
// of the member in the attribute-based sequence A.sequence. The input
// slice is not modified.
func Ranks(members []Member) map[ID]int {
	sorted := make([]Member, len(members))
	copy(sorted, members)
	SortMembers(sorted)
	ranks := make(map[ID]int, len(sorted))
	for i, m := range sorted {
		ranks[m.ID] = i + 1
	}
	return ranks
}

// NormalizedRanks returns α_i/n for every member. The result values lie
// in (0,1]; the largest member maps to exactly 1.
func NormalizedRanks(members []Member) map[ID]float64 {
	n := float64(len(members))
	ranks := Ranks(members)
	norm := make(map[ID]float64, len(ranks))
	for id, r := range ranks {
		norm[id] = float64(r) / n
	}
	return norm
}
