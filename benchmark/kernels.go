package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/membership"
	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/serving"
	"github.com/gossipkit/slicing/internal/view"
)

// Kernel inputs: c=20 like every workload; "hot" stays on one view or a
// hotNodes-node pool that fits in L2.
const (
	kernelC    = 20
	hotNodes   = 256
	payloads   = 256
	windowSize = 10_000
)

// kernelScale sizes the kernel measurements. The tests shrink it; the
// benchmark always runs fullKernels.
type kernelScale struct {
	// coldViews is the pool of arena-bound views the cold merge visits in
	// random order: 200k views are 168 MB, far beyond the last-level cache.
	coldViews int
	// metricsN is the population SDM and GDM are timed on.
	metricsN int
	// batch is the least time one timed batch of calls lasts.
	batch time.Duration
}

var fullKernels = kernelScale{coldViews: 200_000, metricsN: 100_000, batch: 5 * time.Millisecond}

// kernels times the protocol kernels directly, on inputs built from the
// seed, and adds the results to res.
type kernels struct {
	res   *Result
	rng   *rand.Rand
	scale kernelScale
}

// nsPerOp times run(n) — n calls of one kernel — in nine batches, after
// growing n until a batch lasts at least scale.batch, and returns the
// fastest batch's nanoseconds per call. The fastest, not the median: the
// kernels are deterministic, the box is shared, and whatever else runs on
// it can only add time.
func (kn kernels) nsPerOp(run func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		run(n)
		if time.Since(t0) >= kn.scale.batch || n >= 1<<24 {
			break
		}
		n *= 4
	}
	best := math.Inf(1)
	for b := 0; b < 9; b++ {
		t0 := time.Now()
		run(n)
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return best
}

// population is a set of nodes with IDs 1..n, uniform attributes and
// coordinates, from which the kernel inputs are drawn.
type population struct {
	attrs []core.Attr // indexed by ID-1
	rs    []float64
}

// newPopulation draws n nodes. converged aligns the coordinates with the
// attribute order (r = normalized attribute rank), the state a slicing
// run converges to; otherwise they are independent.
func newPopulation(rng *rand.Rand, n int, converged bool) population {
	p := population{attrs: make([]core.Attr, n), rs: make([]float64, n)}
	for i := range p.attrs {
		p.attrs[i] = core.Attr(attrLo + rng.Float64()*(attrHi-attrLo))
		p.rs[i] = 1 - rng.Float64()
	}
	if converged {
		order := rng.Perm(n)
		sort.Slice(order, func(a, b int) bool { return p.attrs[order[a]] < p.attrs[order[b]] })
		for rank, i := range order {
			p.rs[i] = float64(rank+1) / float64(n)
		}
	}
	return p
}

func (p population) entry(id core.ID, age uint32) view.Entry {
	return view.Entry{ID: id, Age: age, Attr: p.attrs[id-1], R: p.rs[id-1]}
}

// sample draws k distinct entries describing nodes other than exclude,
// with the small ages of a gossip steady state.
func (p population) sample(rng *rand.Rand, k int, exclude core.ID) []view.Entry {
	out := make([]view.Entry, 0, k)
	seen := make(map[core.ID]bool, k)
	for len(out) < k {
		id := core.ID(rng.Intn(len(p.attrs)) + 1)
		if id == exclude || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, p.entry(id, uint32(rng.Intn(6))))
	}
	return out
}

// coords is the ID-indexed coordinate table the fast ticks read.
func (p population) coords() proto.CoordTable {
	t := make(proto.CoordTable, len(p.rs)+1)
	t[0] = math.NaN()
	copy(t[1:], p.rs)
	return t
}

// filledView returns a heap-backed view of node id holding c others.
func (p population) filledView(rng *rand.Rand, id core.ID) *view.View {
	v := view.MustNew(kernelC)
	v.Reset(p.sample(rng, kernelC, id))
	return v
}

// kernelMetrics times every protocol kernel. The kernels do not depend on
// the workload and are measured in every traced run.
func kernelMetrics(res *Result, o options) {
	kn := kernels{res: res, rng: rand.New(rand.NewSource(o.seed)), scale: o.kernels}
	kn.view()
	kn.ordering()
	kn.ranking()
	kn.membership()
	kn.metrics()
}

func (kn kernels) view() {
	res, rng := kn.res, kn.rng
	pop := newPopulation(rng, kn.scale.coldViews, false)
	arena := view.NewArena(kernelC, kn.scale.coldViews)
	views := make([]*view.View, kn.scale.coldViews)
	for s := range views {
		eb, ib, ob := arena.Block(s)
		views[s] = view.NewBound(kernelC, eb, ib, ob)
		views[s].Reset(pop.sample(rng, kernelC, core.ID(s+1)))
	}
	// Request-shaped payloads: a full view plus the sender's self entry.
	in := make([][]view.Entry, payloads)
	for i := range in {
		in[i] = pop.sample(rng, kernelC+1, 0)
	}
	var scr view.MergeScratch
	reply := make([]view.Entry, kernelC+1)

	hot := views[0]
	k := 0
	res.add("view.merge_hot_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			hot.MergeReply(in[k%payloads], 1, &scr, reply)
			k++
		}
	}), "ns")
	res.add("view.merge_fresh_hot_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			hot.MergeFreshUsing(in[k%payloads], 1, &scr)
			k++
		}
	}), "ns")

	// Cold: every view once per pass, in random order; the fastest of
	// three passes.
	order := rng.Perm(kn.scale.coldViews)
	cold := math.Inf(1)
	for p := 0; p < 3; p++ {
		t0 := time.Now()
		for _, s := range order {
			views[s].MergeReply(in[k%payloads], core.ID(s+1), &scr, reply)
			k++
		}
		cold = min(cold, float64(time.Since(t0).Nanoseconds())/float64(kn.scale.coldViews))
	}
	res.add("view.merge_cold_ns", cold, "ns")
	res.add("view.bytes_per_entry", float64(arena.Bytes())/float64(kn.scale.coldViews*kernelC), "B")
}

func (kn kernels) ordering() {
	res, rng := kn.res, kn.rng
	part := core.MustEqual(100)
	build := func(converged bool) ([]*ordering.Node, population) {
		pop := newPopulation(rng, hotNodes, converged)
		nodes := make([]*ordering.Node, hotNodes)
		for i := range nodes {
			id := core.ID(i + 1)
			n, err := ordering.NewNode(ordering.Config{
				ID: id, Attr: pop.attrs[i], Partition: part, Policy: ordering.SelectMaxGain,
				View: pop.filledView(rng, id), InitialR: pop.rs[i],
			})
			if err != nil {
				panic(err) // static configuration
			}
			nodes[i] = n
		}
		return nodes, pop
	}
	var scr ordering.Scratch
	k := 0
	tickFast := func(nodes []*ordering.Node, pop population) float64 {
		coords := pop.coords()
		return kn.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				j := k % hotNodes
				nodes[j].TickSwapFast(pop.rs[j], coords, &scr)
				k++
			}
		})
	}
	conv, convPop := build(true)
	res.add("ordering.tick_fast_converged_ns", tickFast(conv, convPop), "ns")
	nodes, pop := build(false)
	res.add("ordering.tick_fast_unconverged_ns", tickFast(nodes, pop), "ns")

	coords := pop.coords()
	reader := proto.FuncReader(coords.Coord)
	res.add("ordering.tick_ref_unconverged_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			nodes[k%hotNodes].TickSwap(reader, rng, &scr)
			k++
		}
	}), "ns")
	res.add("ordering.apply_swap_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			to, from := k%hotNodes, (k*7+3)%hotNodes
			nodes[to].ApplySwapRequest(core.ID(from+1), proto.SwapRequest{R: nodes[from].Estimate(), Attr: pop.attrs[from]})
			k++
		}
	}), "ns")
}

func (kn kernels) ranking() {
	res, rng := kn.res, kn.rng
	part := core.MustEqual(100)
	pop := newPopulation(rng, hotNodes, false)
	build := func(est func() ranking.Estimator) []*ranking.Node {
		nodes := make([]*ranking.Node, hotNodes)
		for i := range nodes {
			id := core.ID(i + 1)
			n, err := ranking.NewNode(ranking.Config{
				ID: id, Attr: pop.attrs[i], Partition: part, Estimator: est(), View: pop.filledView(rng, id),
			})
			if err != nil {
				panic(err) // static configuration
			}
			nodes[i] = n
		}
		return nodes
	}
	counters := build(func() ranking.Estimator { return ranking.NewCounter() })
	windows := build(func() ranking.Estimator { return ranking.MustNewWindow(windowSize) })
	coords := pop.coords()
	reader := proto.FuncReader(coords.Coord)
	var scr ranking.Scratch
	k := 0
	res.add("ranking.tick_fast_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			counters[k%hotNodes].TickTargetsFast(coords, rng, &scr)
			k++
		}
	}), "ns")
	res.add("ranking.tick_ref_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			counters[k%hotNodes].TickTargets(reader, rng, &scr)
			k++
		}
	}), "ns")
	apply := func(nodes []*ranking.Node) float64 {
		return kn.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				from := (k*7 + 3) % hotNodes
				nodes[k%hotNodes].ApplyRankUpdate(core.ID(from+1), pop.attrs[from])
				k++
			}
		})
	}
	res.add("ranking.apply_update_counter_ns", apply(counters), "ns")
	res.add("ranking.apply_update_window_ns", apply(windows), "ns")
}

// membershipKernels times one whole exchange between two live-runtime
// protocol instances: Tick on the initiator, HandleRequest on the
// partner it chose, HandleReply back on the initiator.
func (kn kernels) membership() {
	res, rng := kn.res, kn.rng
	pop := newPopulation(rng, hotNodes, false)
	exchange := func(mk func(id core.ID, self membership.SelfEntryFunc, v *view.View) membership.Protocol) float64 {
		nodes := make([]membership.Protocol, hotNodes)
		for i := range nodes {
			id := core.ID(i + 1)
			nodes[i] = mk(id, func() view.Entry { return pop.entry(id, 0) }, pop.filledView(rng, id))
		}
		k := 0
		return kn.nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				a := core.ID(k%hotNodes + 1)
				k++
				envs := nodes[a-1].Tick(rng)
				if len(envs) == 0 {
					continue
				}
				b := envs[0].To
				for _, env := range nodes[b-1].HandleRequest(a, envs[0].Msg.(proto.ViewRequest), rng) {
					nodes[a-1].HandleReply(b, env.Msg.(proto.ViewReply))
				}
			}
		})
	}
	res.add("membership.cyclon_exchange_ns", exchange(func(id core.ID, self membership.SelfEntryFunc, v *view.View) membership.Protocol {
		return membership.NewCyclon(id, self, v)
	}), "ns")
	res.add("membership.newscast_exchange_ns", exchange(func(id core.ID, self membership.SelfEntryFunc, v *view.View) membership.Protocol {
		return membership.NewNewscast(id, self, v)
	}), "ns")
}

func (kn kernels) metrics() {
	res, rng := kn.res, kn.rng
	part := core.MustEqual(100)
	pop := newPopulation(rng, kn.scale.metricsN, false)
	states := make([]metrics.NodeState, kn.scale.metricsN)
	for i := range states {
		states[i] = metrics.NodeState{
			Member:     core.Member{ID: core.ID(i + 1), Attr: pop.attrs[i]},
			R:          pop.rs[i],
			SliceIndex: part.Index(pop.rs[i]),
		}
	}
	res.add("metrics.sdm_ns_per_node", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			metrics.SDM(states, part)
		}
	})/float64(kn.scale.metricsN), "ns")
	res.add("metrics.gdm_ns_per_node", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			metrics.GDM(states)
		}
	})/float64(kn.scale.metricsN), "ns")
}

// servingKernelMetrics times the query plane's layers from the inside
// out on /slice queries — estimate build, encode, the handler without a
// socket, one HTTP round trip — on the warmed, quiescent cluster, so
// that sliceof+encode ≤ handler ≤ rtt can be read off directly.
func servingKernelMetrics(res *Result, o options, plane *servePlane, client *loadClient) {
	kn := kernels{res: res, scale: o.kernels}
	var slices []query
	for _, q := range client.queries {
		if q.kind == querySlice {
			slices = append(slices, q)
		}
	}
	q := plane.q
	k := 0
	res.add("serving.sliceof_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = q.SliceOf(slices[k%len(slices)].attr) // timing only; answers are checked over HTTP
			k++
		}
	}), "ns")
	res.add("serving.topk_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = q.TopK(topKFrac)
		}
	}), "ns")
	res.add("serving.snapshot_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = q.Snapshot()
		}
	}), "ns")

	answers := make([]serving.SliceAnswer, payloads)
	for i := range answers {
		answers[i], _ = q.SliceOf(slices[i%len(slices)].attr)
	}
	var buf bytes.Buffer
	res.add("serving.encode_ns", kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(answers[k%payloads]) // a bytes.Buffer cannot fail
			k++
		}
	}), "ns")

	handler := plane.srv.Handler()
	reqs := make([]*http.Request, payloads)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, slices[i%len(slices)].path, nil)
	}
	calls := 0
	a0 := totalAlloc()
	handlerNS := kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			handler.ServeHTTP(httptest.NewRecorder(), reqs[k%payloads])
			k++
		}
		calls += n
	})
	res.add("serving.handler_ns", handlerNS, "ns")
	res.add("serving.alloc_bytes_per_query", float64(totalAlloc()-a0)/float64(calls), "B")

	// One client, one connection, one request at a time.
	cn := client.conns[plane.srv.Addr()][0]
	rtt := kn.nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			client.fetch(cn, slices[k%len(slices)])
			k++
		}
	})
	res.add("serving.http_rtt_ns", rtt, "ns")
	res.add("serving.http_overhead_frac", 1-handlerNS/rtt, "ratio")
}
