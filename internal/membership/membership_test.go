package membership

import (
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

func selfEntry(id core.ID) SelfEntryFunc {
	return func() view.Entry {
		return view.Entry{ID: id, Age: 0, Attr: core.Attr(id), R: float64(id) / 1000}
	}
}

// exchange drives one full gossip exchange between two protocol
// instances, delivering the request and its reply synchronously.
func exchange(t *testing.T, a, b Protocol, aID, bID core.ID, rng *rand.Rand) bool {
	t.Helper()
	envs := a.Tick(rng)
	if len(envs) == 0 {
		return false
	}
	if len(envs) != 1 {
		t.Fatalf("Tick returned %d envelopes, want 1", len(envs))
	}
	env := envs[0]
	if env.To != bID {
		// Exchange addressed to a third node: nothing to deliver here.
		return false
	}
	req, ok := env.Msg.(proto.ViewRequest)
	if !ok {
		t.Fatalf("Tick produced %T, want ViewRequest", env.Msg)
	}
	replies := b.HandleRequest(aID, req, rng)
	if len(replies) != 1 {
		t.Fatalf("HandleRequest returned %d envelopes, want 1", len(replies))
	}
	rep, ok := replies[0].Msg.(proto.ViewReply)
	if !ok {
		t.Fatalf("HandleRequest produced %T, want ViewReply", replies[0].Msg)
	}
	if replies[0].To != aID {
		t.Fatalf("reply addressed to %v, want %v", replies[0].To, aID)
	}
	a.HandleReply(bID, rep)
	return true
}

func TestCyclonTickTargetsOldest(t *testing.T) {
	v := view.MustNew(4)
	v.Add(view.Entry{ID: 2, Age: 1})
	v.Add(view.Entry{ID: 3, Age: 7})
	v.Add(view.Entry{ID: 4, Age: 3})
	c := NewCyclon(1, selfEntry(1), v)
	envs := c.Tick(rand.New(rand.NewSource(1)))
	if len(envs) != 1 {
		t.Fatalf("Tick returned %d envelopes", len(envs))
	}
	// After AgeAll, node 3 has age 8 and remains the oldest.
	if envs[0].To != 3 {
		t.Errorf("Tick targeted %v, want oldest neighbor 3", envs[0].To)
	}
	req := envs[0].Msg.(proto.ViewRequest)
	for _, e := range req.Entries {
		if e.ID == 3 {
			t.Error("payload contains the target's own entry")
		}
	}
	found := false
	for _, e := range req.Entries {
		if e.ID == 1 && e.Age == 0 {
			found = true
		}
	}
	if !found {
		t.Error("payload missing fresh self entry")
	}
}

func TestCyclonTickEmptyView(t *testing.T) {
	c := NewCyclon(1, selfEntry(1), view.MustNew(4))
	if envs := c.Tick(rand.New(rand.NewSource(1))); len(envs) != 0 {
		t.Errorf("Tick on empty view returned %d envelopes", len(envs))
	}
}

func TestCyclonExchangeSpreadsEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	va := view.MustNew(8)
	vb := view.MustNew(8)
	va.Add(view.Entry{ID: 2, Age: 5}) // b: the oldest entry, so a gossips with it
	va.Add(view.Entry{ID: 10, Age: 1})
	vb.Add(view.Entry{ID: 20, Age: 2})
	a := NewCyclon(1, selfEntry(1), va)
	b := NewCyclon(2, selfEntry(2), vb)
	for i := 0; i < 4; i++ {
		exchange(t, a, b, 1, 2, rng)
	}
	if !vb.Has(1) {
		t.Error("responder never learned the initiator")
	}
	if !vb.Has(10) {
		t.Error("responder never learned initiator's neighbor 10")
	}
	if !va.Has(20) {
		t.Error("initiator never learned responder's neighbor 20")
	}
	if va.Has(1) || vb.Has(2) {
		t.Error("a view contains its own node")
	}
	if err := va.Validate(); err != nil {
		t.Error(err)
	}
	if err := vb.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCyclonReplyExcludesInitiator(t *testing.T) {
	vb := view.MustNew(4)
	vb.Add(view.Entry{ID: 1, Age: 0}) // the initiator
	vb.Add(view.Entry{ID: 5, Age: 0})
	b := NewCyclon(2, selfEntry(2), vb)
	replies := b.HandleRequest(1, proto.ViewRequest{}, rand.New(rand.NewSource(1)))
	rep := replies[0].Msg.(proto.ViewReply)
	for _, e := range rep.Entries {
		if e.ID == 1 {
			t.Error("reply contains an entry describing the initiator")
		}
	}
}

// One pooled buffer carries a whole Cyclon exchange, so an exchange
// allocates only its two envelopes, their two interface boxes and the
// slice header the reply's array returns to the pool in — no view-sized
// payload. Copying the view into a fresh request and a fresh reply made
// it six, two of them ~670 B.
func TestCyclonExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const c = 20
	pop := make([]view.Entry, 4*c)
	for i := range pop {
		id := core.ID(i + 1)
		pop[i] = view.Entry{ID: id, Age: uint32(i % 5), Attr: core.Attr(id), R: float64(i) / float64(len(pop))}
	}
	nodes := make([]*Cyclon, len(pop))
	for i := range nodes {
		v := view.MustNew(c)
		for k := 1; k <= c; k++ {
			v.Add(pop[(i+3*k)%len(pop)])
		}
		id := pop[i].ID
		nodes[i] = NewCyclon(id, selfEntry(id), v)
	}
	k := 0
	exchange := func() {
		a := nodes[k%len(nodes)]
		k++
		envs := a.Tick(nil)
		b := nodes[envs[0].To-1]
		rep := b.HandleRequest(a.self, envs[0].Msg.(proto.ViewRequest), nil)
		a.HandleReply(b.self, rep[0].Msg.(proto.ViewReply))
	}
	for i := 0; i < 2*len(nodes); i++ {
		exchange() // fill the merge and payload pools
	}
	got := testing.AllocsPerRun(200, exchange)
	t.Logf("%v allocations per exchange", got)
	if got > 5 {
		t.Errorf("one Cyclon exchange allocates %v times, budget 5", got)
	}
}

func TestNewscastExchangeFreshestWins(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	va := view.MustNew(4)
	vb := view.MustNew(4)
	va.Add(view.Entry{ID: 2, Age: 0})
	va.Add(view.Entry{ID: 9, Age: 6, R: 0.1})
	vb.Add(view.Entry{ID: 9, Age: 1, R: 0.9})
	a := NewNewscast(1, selfEntry(1), va)
	b := NewNewscast(2, selfEntry(2), vb)
	for i := 0; i < 3; i++ {
		exchange(t, a, b, 1, 2, rng)
	}
	e, ok := va.Get(9)
	if !ok {
		t.Fatal("initiator lost entry 9")
	}
	if e.R != 0.9 {
		t.Errorf("initiator kept stale entry for 9: %+v", e)
	}
}

func TestNewscastBoundsViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	va := view.MustNew(3)
	vb := view.MustNew(3)
	for i := 10; i < 16; i++ {
		if i%2 == 0 {
			va.Add(view.Entry{ID: core.ID(i), Age: uint32(i)})
		} else {
			vb.Add(view.Entry{ID: core.ID(i), Age: uint32(i)})
		}
	}
	va.Add(view.Entry{ID: 2, Age: 0})
	a := NewNewscast(1, selfEntry(1), va)
	b := NewNewscast(2, selfEntry(2), vb)
	for i := 0; i < 5; i++ {
		exchange(t, a, b, 1, 2, rng)
		if err := va.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := vb.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNames(t *testing.T) {
	v := view.MustNew(2)
	tests := []struct {
		p    Protocol
		want string
	}{
		{NewCyclon(1, selfEntry(1), v), "cyclon"},
		{NewNewscast(1, selfEntry(1), v), "newscast"},
	}
	for _, tt := range tests {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

// Gossiping in a clique of nodes must keep every view valid and free of
// self entries, whatever the exchange interleaving.
func TestCyclonCliqueInvariants(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(11))
	protos := make([]*Cyclon, n)
	views := make([]*view.View, n)
	for i := 0; i < n; i++ {
		views[i] = view.MustNew(4)
		protos[i] = NewCyclon(core.ID(i), selfEntry(core.ID(i)), views[i])
	}
	// Bootstrap: ring topology.
	for i := 0; i < n; i++ {
		views[i].Add(view.Entry{ID: core.ID((i + 1) % n)})
		views[i].Add(view.Entry{ID: core.ID((i + n - 1) % n)})
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < n; i++ {
			envs := protos[i].Tick(rng)
			for _, env := range envs {
				target := protos[env.To]
				reqMsg, ok := env.Msg.(proto.ViewRequest)
				if !ok {
					t.Fatalf("unexpected message %T", env.Msg)
				}
				replies := target.HandleRequest(core.ID(i), reqMsg, rng)
				for _, rep := range replies {
					protos[i].HandleReply(env.To, rep.Msg.(proto.ViewReply))
				}
			}
		}
		for i := 0; i < n; i++ {
			if err := views[i].Validate(); err != nil {
				t.Fatalf("round %d node %d: %v", round, i, err)
			}
			if views[i].Has(core.ID(i)) {
				t.Fatalf("round %d node %d: view contains self", round, i)
			}
		}
	}
	// After mixing, every node should have a full view.
	for i := 0; i < n; i++ {
		if views[i].Len() != views[i].Cap() {
			t.Errorf("node %d view size %d, want full %d", i, views[i].Len(), views[i].Cap())
		}
	}
}
