package ordering

import (
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

func TestTickSkipsPlaceholders(t *testing.T) {
	v := view.MustNew(4)
	n, err := NewNode(Config{
		ID: 1, Attr: 50, Partition: core.MustEqual(4),
		Policy: SelectMaxGain, View: v, InitialR: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A placeholder that would look wildly misplaced if its zero attr
	// and zero coordinate were taken at face value.
	v.Add(view.Entry{ID: 2, Age: view.AgeUnknown})
	if envs := n.Tick(rand.New(rand.NewSource(1))); len(envs) != 0 {
		t.Errorf("Tick engaged a placeholder: %v", envs)
	}
}

func TestMaxGainIgnoresPlaceholderInLocalSequences(t *testing.T) {
	v := view.MustNew(4)
	n, err := NewNode(Config{
		ID: 1, Attr: 50, Partition: core.MustEqual(4),
		Policy: SelectMaxGain, View: v, InitialR: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	v.Add(view.Entry{ID: 2, Age: view.AgeUnknown})
	v.Add(view.Entry{ID: 3, Age: 0, Attr: 60, R: 0.4}) // genuinely misplaced
	state := proto.MapReader{1: 0.5, 3: 0.4}
	envs := n.Tick(rand.New(rand.NewSource(1)))
	if len(envs) != 1 || envs[0].To != 3 {
		t.Fatalf("expected a swap with node 3, got %v", envs)
	}
	if n.LDM(state) < 0 {
		t.Error("LDM negative")
	}
}
