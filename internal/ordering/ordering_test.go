package ordering

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

func TestMisplacedPredicate(t *testing.T) {
	tests := []struct {
		name   string
		ai, aj core.Attr
		ri, rj float64
		want   bool
	}{
		{"larger attr smaller r", 10, 20, 0.9, 0.1, true},
		{"smaller attr larger r", 20, 10, 0.1, 0.9, true},
		{"aligned ascending", 10, 20, 0.1, 0.9, false},
		{"aligned descending", 20, 10, 0.9, 0.1, false},
		{"equal attrs", 10, 10, 0.9, 0.1, false},
		{"equal random values", 10, 20, 0.5, 0.5, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Misplaced(tt.ai, tt.aj, tt.ri, tt.rj); got != tt.want {
				t.Errorf("Misplaced(%v,%v,%v,%v) = %v, want %v", tt.ai, tt.aj, tt.ri, tt.rj, got, tt.want)
			}
		})
	}
}

// Property: misplacement is symmetric in the pair.
func TestMisplacedSymmetric(t *testing.T) {
	f := func(ai, aj, ri, rj float64) bool {
		return Misplaced(core.Attr(ai), core.Attr(aj), ri, rj) ==
			Misplaced(core.Attr(aj), core.Attr(ai), rj, ri)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: swapping the random values of a misplaced pair makes it
// well-placed.
func TestSwapFixesMisplacement(t *testing.T) {
	f := func(ai, aj, ri, rj float64) bool {
		if !Misplaced(core.Attr(ai), core.Attr(aj), ri, rj) {
			return true
		}
		return !Misplaced(core.Attr(ai), core.Attr(aj), rj, ri)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewNodeValidation(t *testing.T) {
	part := core.MustEqual(10)
	v := view.MustNew(4)
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{ID: 1, Partition: part, Policy: SelectMaxGain, View: v, InitialR: 0.5}, false},
		{"nil view", Config{ID: 1, Partition: part, Policy: SelectMaxGain, InitialR: 0.5}, true},
		{"zero r", Config{ID: 1, Partition: part, Policy: SelectMaxGain, View: v, InitialR: 0}, true},
		{"r above 1", Config{ID: 1, Partition: part, Policy: SelectMaxGain, View: v, InitialR: 1.5}, true},
		{"bad policy", Config{ID: 1, Partition: part, View: v, InitialR: 0.5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNode(tt.cfg); (err != nil) != tt.wantErr {
				t.Errorf("NewNode error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPolicyString(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{SelectRandomMisplaced, "jk"},
		{SelectMaxGain, "mod-jk"},
		{Policy(99), "policy(99)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Policy.String() = %q, want %q", got, tt.want)
		}
	}
}

// cluster is a test harness: a fully connected set of ordering nodes
// with synchronous message delivery and a live state reader.
type cluster struct {
	nodes map[core.ID]*Node
	order []core.ID
}

func newCluster(t *testing.T, policy Policy, attrs []core.Attr, rs []float64) *cluster {
	t.Helper()
	part := core.MustEqual(len(attrs))
	c := &cluster{nodes: make(map[core.ID]*Node, len(attrs))}
	for i := range attrs {
		id := core.ID(i + 1)
		v := view.MustNew(len(attrs))
		n, err := NewNode(Config{
			ID: id, Attr: attrs[i], Partition: part,
			Policy: policy, View: v, InitialR: rs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[id] = n
		c.order = append(c.order, id)
	}
	// Full views.
	for _, id := range c.order {
		for _, other := range c.order {
			if other != id {
				c.nodes[id].View().Add(c.nodes[other].SelfEntry())
			}
		}
	}
	return c
}

func (c *cluster) live() proto.StateReader {
	return proto.FuncReader(func(id core.ID) (float64, bool) {
		n, ok := c.nodes[id]
		if !ok {
			return 0, false
		}
		return n.Estimate(), true
	})
}

// tickOver is Tick with coordinates resolved through state: the
// reference tick, boxed as Tick boxes it.
func tickOver(n *Node, state proto.StateReader, rng core.RNG) []proto.Envelope {
	to, req, ok := n.TickSwap(state, rng, new(Scratch))
	if !ok {
		return nil
	}
	return []proto.Envelope{{To: to, Msg: req}}
}

// step runs one synchronous tick for every node over the live reader,
// delivering messages immediately.
func (c *cluster) step(rng *rand.Rand) {
	for _, id := range c.order {
		n := c.nodes[id]
		for _, env := range tickOver(n, c.live(), rng) {
			target := c.nodes[env.To]
			for _, rep := range target.Handle(id, env.Msg, rng) {
				c.nodes[rep.To].Handle(env.To, rep.Msg, rng)
			}
		}
	}
}

// sortedByAttrMatchesSortedByR reports whether the random values are
// perfectly ordered by attribute.
func (c *cluster) sorted() bool {
	ids := append([]core.ID(nil), c.order...)
	sort.Slice(ids, func(x, y int) bool {
		return core.Less(c.nodes[ids[x]].Member(), c.nodes[ids[y]].Member())
	})
	prev := math.Inf(-1)
	for _, id := range ids {
		r := c.nodes[id].Estimate()
		if r < prev {
			return false
		}
		prev = r
	}
	return true
}

func (c *cluster) multiset() []float64 {
	rs := make([]float64, 0, len(c.order))
	for _, id := range c.order {
		rs = append(rs, c.nodes[id].Estimate())
	}
	sort.Float64s(rs)
	return rs
}

func TestPairwiseSwapThroughMessages(t *testing.T) {
	// Two nodes, misplaced: node 1 has the smaller attribute but the
	// larger random value. One exchange must swap them.
	c := newCluster(t, SelectMaxGain, []core.Attr{10, 20}, []float64{0.9, 0.2})
	rng := rand.New(rand.NewSource(1))
	c.step(rng)
	if got := c.nodes[1].Estimate(); got != 0.2 {
		t.Errorf("node 1 r = %v, want 0.2", got)
	}
	if got := c.nodes[2].Estimate(); got != 0.9 {
		t.Errorf("node 2 r = %v, want 0.9", got)
	}
	if !c.sorted() {
		t.Error("pair still misplaced after exchange")
	}
}

func TestNoSwapWhenAligned(t *testing.T) {
	c := newCluster(t, SelectMaxGain, []core.Attr{10, 20}, []float64{0.2, 0.9})
	rng := rand.New(rand.NewSource(1))
	c.step(rng)
	if c.nodes[1].Estimate() != 0.2 || c.nodes[2].Estimate() != 0.9 {
		t.Error("aligned pair swapped anyway")
	}
	st := c.nodes[1].Stats()
	if st.ReqSent != 0 {
		t.Errorf("aligned node sent %d requests, want 0", st.ReqSent)
	}
}

func TestConvergenceToTotalOrder(t *testing.T) {
	for _, policy := range []Policy{SelectRandomMisplaced, SelectMaxGain} {
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			const n = 40
			attrs := make([]core.Attr, n)
			rs := make([]float64, n)
			for i := range attrs {
				attrs[i] = core.Attr(rng.NormFloat64() * 100)
				rs[i] = 1 - rng.Float64()
			}
			c := newCluster(t, policy, attrs, rs)
			before := c.multiset()
			maxSteps := 200
			converged := -1
			for s := 0; s < maxSteps; s++ {
				c.step(rng)
				if c.sorted() {
					converged = s
					break
				}
			}
			if converged < 0 {
				t.Fatalf("%v did not converge in %d steps", policy, maxSteps)
			}
			after := c.multiset()
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("random-value multiset changed: swap protocol lost values")
				}
			}
		})
	}
}

// mod-JK must converge at least as fast as JK on identical initial
// conditions (averaged over seeds): the paper's Fig. 4(b) claim.
func TestMaxGainConvergesFasterThanJK(t *testing.T) {
	stepsFor := func(policy Policy, seed int64) int {
		rng := rand.New(rand.NewSource(seed))
		const n = 30
		attrs := make([]core.Attr, n)
		rs := make([]float64, n)
		for i := range attrs {
			attrs[i] = core.Attr(rng.Float64() * 1000)
			rs[i] = 1 - rng.Float64()
		}
		c := newCluster(t, policy, attrs, rs)
		loop := rand.New(rand.NewSource(seed + 1000))
		for s := 1; s <= 400; s++ {
			c.step(loop)
			if c.sorted() {
				return s
			}
		}
		return 401
	}
	var jkTotal, modTotal int
	for seed := int64(0); seed < 10; seed++ {
		jkTotal += stepsFor(SelectRandomMisplaced, seed)
		modTotal += stepsFor(SelectMaxGain, seed)
	}
	if modTotal > jkTotal {
		t.Errorf("mod-JK total steps %d > JK total steps %d across seeds", modTotal, jkTotal)
	}
}

// LDM returns the node's local disorder measure LDM_i(t) (§4.3): the
// mean squared distance between the local attribute and random indices
// over N_i ∪ {i}.
func (n *Node) LDM(state proto.StateReader) float64 {
	selfR, ok := state.R(n.id)
	if !ok {
		selfR = n.r
	}
	self := n.self()
	local := rankMembers(self.localMembers(selfR, state, new(Scratch)))
	sum := 0.0
	for _, m := range local.others {
		d := float64(m.la - m.lr)
		sum += d * d
	}
	d := float64(local.self.la - local.self.lr)
	sum += d * d
	return sum / float64(local.size)
}

// Property (Eq. (1)): the closed-form gain equals the measured LDM
// reduction after actually performing the swap through the protocol
// messages.
func TestGainEqualsLDMReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10)
		attrs := make([]core.Attr, n)
		rs := make([]float64, n)
		seen := map[float64]bool{}
		for i := range attrs {
			attrs[i] = core.Attr(rng.Float64() * 100)
			// Distinct random values keep local sequence positions stable
			// under swap, which the closed form assumes.
			for {
				r := 1 - rng.Float64()
				if !seen[r] {
					seen[r] = true
					rs[i] = r
					break
				}
			}
		}
		c := newCluster(t, SelectMaxGain, attrs, rs)
		node := c.nodes[1]
		state := c.live()
		self := node.self()
		local := rankMembers(self.localMembers(node.Estimate(), state, new(Scratch)))
		// Pick any misplaced neighbor and verify the gain.
		for _, m := range local.others {
			if !Misplaced(node.attr, m.attr, node.Estimate(), m.r) {
				continue
			}
			predicted := local.gain(local.self, m)
			before := node.LDM(state)
			// Swap by force, then measure.
			other := c.nodes[m.id]
			ri, rj := node.Estimate(), other.Estimate()
			node.r, other.r = rj, ri
			after := node.LDM(state)
			node.r, other.r = ri, rj
			if math.Abs((before-after)-predicted) > 1e-9 {
				t.Fatalf("trial %d: gain %v != LDM reduction %v", trial, predicted, before-after)
			}
			break
		}
	}
}

// The gain-maximizing neighbor choice must pick the neighbor whose swap
// reduces LDM the most.
func TestMaxGainPicksBestNeighbor(t *testing.T) {
	// Node 1: attr 10, r = 0.9 (should be lowest r).
	// Neighbor 2: attr 20, r = 0.1 — badly misplaced relative to 1.
	// Neighbor 3: attr 15, r = 0.5 — mildly misplaced relative to 1.
	c := newCluster(t, SelectMaxGain, []core.Attr{10, 20, 15}, []float64{0.9, 0.1, 0.5})
	rng := rand.New(rand.NewSource(2))
	envs := tickOver(c.nodes[1], c.live(), rng)
	if len(envs) != 1 {
		t.Fatalf("Tick returned %d envelopes, want 1", len(envs))
	}
	if envs[0].To != 2 {
		t.Errorf("max-gain picked node %v, want 2 (the most misplaced)", envs[0].To)
	}
}

func TestUnsuccessfulSwapUnderStaleness(t *testing.T) {
	// Node 1 believes node 2 still has r=0.1 (snapshot), but node 2 has
	// moved to r=0.95: the request is wasted.
	c := newCluster(t, SelectMaxGain, []core.Attr{10, 20}, []float64{0.9, 0.1})
	rng := rand.New(rand.NewSource(3))
	snapshot := proto.MapReader{1: 0.9, 2: 0.1}
	envs := tickOver(c.nodes[1], snapshot, rng)
	if len(envs) != 1 || envs[0].To != 2 {
		t.Fatalf("expected one request to node 2, got %v", envs)
	}
	// Node 2's value changes before the message arrives.
	c.nodes[2].r = 0.95
	reps := c.nodes[2].Handle(1, envs[0].Msg, rng)
	st := c.nodes[2].Stats()
	if st.SwapFailedAtReceiver != 1 {
		t.Errorf("SwapFailedAtReceiver = %d, want 1", st.SwapFailedAtReceiver)
	}
	if c.nodes[2].Estimate() != 0.95 {
		t.Errorf("receiver adopted a stale value: r = %v", c.nodes[2].Estimate())
	}
	// The reply carries 0.95; the initiator's predicate (attr 20 > attr
	// 10, 0.95 > 0.9) fails as well.
	c.nodes[1].Handle(2, reps[0].Msg, rng)
	if c.nodes[1].Estimate() != 0.9 {
		t.Errorf("initiator adopted a value despite failed predicate: r = %v", c.nodes[1].Estimate())
	}
	if got := c.nodes[1].Stats().SwapFailedAtInitiator; got != 1 {
		t.Errorf("SwapFailedAtInitiator = %d, want 1", got)
	}
}

func TestHandleReplyPartnerGone(t *testing.T) {
	c := newCluster(t, SelectMaxGain, []core.Attr{10, 20}, []float64{0.9, 0.1})
	rng := rand.New(rand.NewSource(4))
	// Remove node 2 from node 1's view before the reply arrives.
	c.nodes[1].View().Remove(2)
	c.nodes[1].Handle(2, proto.SwapReply{R: 0.1}, rng)
	if c.nodes[1].Estimate() != 0.9 {
		t.Error("initiator swapped with a partner absent from its view")
	}
	if got := c.nodes[1].Stats().SwapFailedAtInitiator; got != 1 {
		t.Errorf("SwapFailedAtInitiator = %d, want 1", got)
	}
}

func TestHandleIgnoresForeignMessages(t *testing.T) {
	c := newCluster(t, SelectMaxGain, []core.Attr{10, 20}, []float64{0.9, 0.1})
	rng := rand.New(rand.NewSource(4))
	if out := c.nodes[1].Handle(2, proto.RankUpdate{Attr: 5}, rng); out != nil {
		t.Errorf("Handle(RankUpdate) = %v, want nil", out)
	}
}

func TestSliceIndexFollowsRandomValue(t *testing.T) {
	part := core.MustEqual(4)
	v := view.MustNew(2)
	n, err := NewNode(Config{ID: 1, Attr: 5, Partition: part, Policy: SelectMaxGain, View: v, InitialR: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.SliceIndex(); got != 1 {
		t.Errorf("SliceIndex = %d, want 1", got)
	}
	n.r = 0.95
	if got := n.SliceIndex(); got != 3 {
		t.Errorf("SliceIndex = %d, want 3", got)
	}
}

func TestSelfEntryFresh(t *testing.T) {
	v := view.MustNew(2)
	n, err := NewNode(Config{ID: 9, Attr: 3, Partition: core.MustEqual(2), Policy: SelectRandomMisplaced, View: v, InitialR: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	e := n.SelfEntry()
	if e.ID != 9 || e.Age != 0 || e.Attr != 3 || e.R != 0.4 {
		t.Errorf("SelfEntry = %+v", e)
	}
}

func TestTickOnEmptyView(t *testing.T) {
	v := view.MustNew(2)
	n, err := NewNode(Config{ID: 1, Attr: 5, Partition: core.MustEqual(2), Policy: SelectMaxGain, View: v, InitialR: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if envs := n.Tick(rand.New(rand.NewSource(1))); len(envs) != 0 {
		t.Errorf("Tick on empty view sent %d messages", len(envs))
	}
}
