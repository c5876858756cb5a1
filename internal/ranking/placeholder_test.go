package ranking

import (
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/view"
)

func TestTickSkipsPlaceholders(t *testing.T) {
	n := newTestNode(t, 10, 50, 4, nil)
	n.View().Add(view.Entry{ID: 1, Age: view.AgeUnknown}) // bootstrap contact
	rng := rand.New(rand.NewSource(1))
	envs := n.Tick(rng)
	if len(envs) != 0 {
		t.Errorf("Tick targeted a placeholder: %v", envs)
	}
	if n.Samples() != 0 {
		t.Errorf("placeholder fed the estimator: %d samples", n.Samples())
	}
}

func TestTickMixedPlaceholdersAndReal(t *testing.T) {
	n := newTestNode(t, 10, 50, 4, nil)
	n.View().Add(view.Entry{ID: 1, Age: view.AgeUnknown})
	n.View().Add(view.Entry{ID: 2, Age: 0, Attr: 10, R: 0.3})
	rng := rand.New(rand.NewSource(1))
	envs := n.Tick(rng)
	for _, env := range envs {
		if env.To == 1 {
			t.Error("UPD sent to a placeholder contact")
		}
	}
	if n.Samples() != 1 {
		t.Errorf("samples = %d, want 1 (only the real entry)", n.Samples())
	}
}
