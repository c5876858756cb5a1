package codec

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

func TestRoundTripAllTypes(t *testing.T) {
	entries := []view.Entry{
		{ID: 1, Age: 0, Attr: 42.5, R: 0.25},
		{ID: math.MaxUint64, Age: math.MaxUint32, Attr: -1e300, R: 1},
	}
	msgs := []proto.Message{
		proto.ViewRequest{Entries: entries},
		proto.ViewRequest{Entries: []view.Entry{}},
		proto.ViewReply{Entries: entries},
		proto.SwapRequest{R: 0.123456789, Attr: -5},
		proto.SwapReply{R: 1},
		proto.RankUpdate{Attr: 3.14},
	}
	for _, msg := range msgs {
		data, err := Marshal(msg)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", msg, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%T): %v", msg, err)
		}
		want := msg
		// Empty slices decode as empty (not nil); normalize.
		if vr, ok := want.(proto.ViewRequest); ok && vr.Entries == nil {
			vr.Entries = []view.Entry{}
			want = vr
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %T: got %+v, want %+v", msg, got, want)
		}
	}
}

func TestVersionCheck(t *testing.T) {
	data, err := Marshal(proto.SwapReply{R: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 99
	if _, err := Unmarshal(data); !errors.Is(err, ErrVersion) {
		t.Errorf("Unmarshal error = %v, want ErrVersion", err)
	}
}

func TestUnknownType(t *testing.T) {
	if _, err := Unmarshal([]byte{Version, 250, 0, 0}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("Unmarshal error = %v, want ErrUnknownType", err)
	}
	type fake struct{ proto.Message }
	if _, err := Marshal(fake{}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("Marshal error = %v, want ErrUnknownType", err)
	}
}

func TestTruncatedFrames(t *testing.T) {
	msgs := []proto.Message{
		proto.ViewRequest{Entries: []view.Entry{{ID: 1}}},
		proto.SwapRequest{R: 0.5, Attr: 1},
		proto.SwapReply{R: 0.5},
		proto.RankUpdate{Attr: 1},
	}
	for _, msg := range msgs {
		data, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(data); cut++ {
			if _, err := Unmarshal(data[:cut]); err == nil {
				t.Errorf("%T truncated to %d bytes decoded without error", msg, cut)
			}
		}
	}
	if _, err := Unmarshal(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("Unmarshal(nil) error = %v, want ErrTruncated", err)
	}
}

// Property: random view requests survive a round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := make([]view.Entry, int(n)%64)
		for i := range entries {
			entries[i] = view.Entry{
				ID:   core.ID(rng.Uint64()),
				Age:  rng.Uint32(),
				Attr: core.Attr(rng.NormFloat64() * 1e6),
				R:    rng.Float64(),
			}
		}
		msg := proto.ViewReply{Entries: entries}
		data, err := Marshal(msg)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		rep, ok := got.(proto.ViewReply)
		if !ok || len(rep.Entries) != len(entries) {
			return false
		}
		for i := range entries {
			if rep.Entries[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary byte garbage never panics the decoder.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Unmarshal(data) // must not panic; errors are fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFrameSizes(t *testing.T) {
	// The fixed-size messages have documented frame sizes.
	tests := []struct {
		msg  proto.Message
		want int
	}{
		{proto.SwapRequest{}, 18},
		{proto.SwapReply{}, 10},
		{proto.RankUpdate{}, 10},
		{proto.ViewRequest{Entries: make([]view.Entry, 3)}, 4 + 3*28},
	}
	for _, tt := range tests {
		data, err := Marshal(tt.msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != tt.want {
			t.Errorf("%T frame = %d bytes, want %d", tt.msg, len(data), tt.want)
		}
	}
}

// FuzzCodecUnmarshal feeds hostile frames to the decoder. It must never
// panic, never allocate more entries than the frame's bytes can hold,
// and every frame it accepts must re-marshal to a frame that decodes to
// the bit-identical message (floats compared by their bits, so NaN
// payloads compare too).
func FuzzCodecUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		var entries []view.Entry
		switch m := msg.(type) {
		case proto.ViewRequest:
			entries = m.Entries
		case proto.ViewReply:
			entries = m.Entries
		}
		if cap(entries)*entrySize > len(data) {
			t.Fatalf("a %d-byte frame allocated %d entries", len(data), cap(entries))
		}
		again, err := Marshal(msg)
		if err != nil {
			t.Fatalf("accepted %T does not re-marshal: %v", msg, err)
		}
		back, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-marshaled %T does not decode: %v", msg, err)
		}
		if a, b := wireBits(msg), wireBits(back); !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip changed the message:\n got %x\nwant %x", b, a)
		}
	})
}

// wireBits flattens a message to its type tag and field bits, floats by
// math.Float64bits.
func wireBits(msg proto.Message) []uint64 {
	entryBits := func(tag uint64, es []view.Entry) []uint64 {
		out := []uint64{tag}
		for _, e := range es {
			out = append(out, uint64(e.ID), uint64(e.Age),
				math.Float64bits(float64(e.Attr)), math.Float64bits(e.R))
		}
		return out
	}
	switch m := msg.(type) {
	case proto.ViewRequest:
		return entryBits(uint64(tagViewRequest), m.Entries)
	case proto.ViewReply:
		return entryBits(uint64(tagViewReply), m.Entries)
	case proto.SwapRequest:
		return []uint64{uint64(tagSwapRequest), math.Float64bits(m.R), math.Float64bits(float64(m.Attr))}
	case proto.SwapReply:
		return []uint64{uint64(tagSwapReply), math.Float64bits(m.R)}
	case proto.RankUpdate:
		return []uint64{uint64(tagRankUpdate), math.Float64bits(float64(m.Attr))}
	}
	return nil
}
