package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceKind classifies one protocol decision event.
type TraceKind uint8

// Decision events the protocol layers record. The set mirrors the
// paper's vocabulary: view exchanges are the gossip substrate (§4),
// swap attempts/abandons are the JK/mod-JK ordering moves (§4.2), rank
// updates are the §5 estimator feed, and boundary crossings are the
// observable outcome — a node's slice answer changing.
const (
	TraceViewExchange TraceKind = iota + 1
	TraceSwapRequest
	TraceSwapApplied
	TraceSwapFailed
	TraceSwapAbandoned
	TraceBoundaryCross
	TraceRankUpdate
	// Fault-plane events: the chaos layer records when it opens or heals
	// a network partition and when a byzantine node installs a
	// misreported attribute (Attr carries the lie).
	TracePartitionOpen
	TracePartitionHeal
	TraceLieSent
)

var traceKindNames = map[TraceKind]string{
	TraceViewExchange:  "viewExchange",
	TraceSwapRequest:   "swapRequest",
	TraceSwapApplied:   "swapApplied",
	TraceSwapFailed:    "swapFailed",
	TraceSwapAbandoned: "swapAbandoned",
	TraceBoundaryCross: "boundaryCross",
	TraceRankUpdate:    "rankUpdate",
	TracePartitionOpen: "partitionOpen",
	TracePartitionHeal: "partitionHeal",
	TraceLieSent:       "lieSent",
}

// String returns the JSON wire name of the kind.
func (k TraceKind) String() string {
	if s, ok := traceKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("unknown(%d)", uint8(k))
}

// MarshalJSON renders the kind as its wire name.
func (k TraceKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the wire name.
func (k *TraceKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, name := range traceKindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown trace kind %q", s)
}

// TraceEvent is one recorded protocol decision. Seq and Time are
// stamped by the ring; the rest is caller-supplied. Numeric fields are
// kind-specific: Rank carries a rank estimate for rankUpdate, the
// exchanged attribute for swap events; Slice/OldSlice frame a
// boundaryCross.
type TraceEvent struct {
	Seq      uint64    `json:"seq"`
	Time     int64     `json:"timeUnixNano"`
	Kind     TraceKind `json:"kind"`
	Node     uint64    `json:"node"`
	Peer     uint64    `json:"peer,omitempty"`
	Slice    int       `json:"slice,omitempty"`
	OldSlice int       `json:"oldSlice,omitempty"`
	Attr     float64   `json:"attr,omitempty"`
	Rank     float64   `json:"rank,omitempty"`
}

// traceSlot pairs an event with the lock its copy is made under; used
// is false until the slot is first written.
type traceSlot struct {
	mu   sync.Mutex
	used bool
	ev   TraceEvent
}

// TraceRing is a fixed-capacity ring of TraceEvents, overwrite-oldest.
// Writers claim a slot with one atomic add and copy under that slot's
// mutex, so writers contend only when the ring wraps onto a slot still
// being written; readers TryLock and skip rather than wait.
// Recording through a nil ring is a no-op, so every protocol hook is a
// single nil check when tracing is off.
type TraceRing struct {
	mask  uint64
	pos   atomic.Uint64 // next event index; also the total recorded
	slots []traceSlot
}

// DefaultTraceCapacity is the ring size used when callers pass 0.
const DefaultTraceCapacity = 4096

// NewTraceRing returns a ring holding the most recent capacity events
// (rounded up to a power of two, minimum 16; 0 means
// DefaultTraceCapacity).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	size := 16
	for size < capacity {
		size <<= 1
	}
	return &TraceRing{mask: uint64(size - 1), slots: make([]traceSlot, size)}
}

// Record stamps ev with the next sequence number and the current wall
// time and stores it, overwriting the oldest event once full. Safe for
// concurrent use and nil-safe.
func (r *TraceRing) Record(ev TraceEvent) {
	if r == nil {
		return
	}
	i := r.pos.Add(1) - 1
	ev.Seq = i
	ev.Time = time.Now().UnixNano()
	s := &r.slots[i&r.mask]
	s.mu.Lock()
	// Two writers a full lap apart can reach the lock out of order; the
	// slot keeps the newer event.
	if !s.used || s.ev.Seq < i {
		s.ev, s.used = ev, true
	}
	s.mu.Unlock()
}

// Total returns how many events have ever been recorded (recorded
// minus capacity, when positive, have been overwritten).
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.pos.Load()
}

// Snapshot returns the currently held events, oldest first. Slots being
// written during the pass are retried a few times, then skipped — a
// dump never waits on a writer, and holds a slot only for one struct
// copy.
func (r *TraceRing) Snapshot() []TraceEvent {
	if r == nil {
		return nil
	}
	out := make([]TraceEvent, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 3; attempt++ {
			if !s.mu.TryLock() {
				continue
			}
			ev, used := s.ev, s.used
			s.mu.Unlock()
			if used {
				out = append(out, ev)
			}
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TraceDump is the JSON shape of a trace dump — what /debug/trace and
// `slicebench trace` emit.
type TraceDump struct {
	// Total is the number of events ever recorded; Total - len(Events)
	// (when positive) were overwritten before this dump.
	Total uint64 `json:"total"`
	// Capacity is the ring size.
	Capacity int `json:"capacity"`
	// Events are the retained events, oldest first.
	Events []TraceEvent `json:"events"`
}

// Dump captures the ring as a TraceDump.
func (r *TraceRing) Dump() TraceDump {
	if r == nil {
		return TraceDump{Events: []TraceEvent{}}
	}
	events := r.Snapshot()
	if events == nil {
		events = []TraceEvent{}
	}
	return TraceDump{Total: r.Total(), Capacity: len(r.slots), Events: events}
}

// WriteJSON writes the dump to w with indentation (the payload is for
// humans and jq).
func (r *TraceRing) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Dump())
}
