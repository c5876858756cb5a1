// Package sim implements the cycle-based simulation engine the paper's
// evaluation runs on (PeerSim's cycle model, §4.5): in each cycle every
// node updates its view through the membership protocol and then runs
// one slicing protocol step, with message exchanges atomic by default.
//
// Artificial concurrency (§4.5.2) is reproduced exactly as described:
// each swap exchange is an "overlapping message" with a configurable
// probability. Overlapping exchanges select their partner and capture
// their payload from a snapshot of the state at the beginning of the
// cycle and are delivered in random order at the end of the cycle, so
// their information can be stale by the time it lands — producing the
// unsuccessful swaps of Fig. 4(c). Non-overlapping exchanges read live
// state and complete immediately ("the view is up-to-date when a message
// is sent").
//
// Churn (§3.3) is applied at the start of each cycle: leavers vanish
// (crash and departure are indistinguishable), joiners arrive with a
// bootstrap view of random live nodes, a fresh random value (ordering)
// or an empty estimator (ranking).
//
// # Engine core
//
// Node state is laid out struct-of-arrays: the engine holds parallel
// slices addressed by a dense arena index ("slot") — identifiers (ids),
// value-stored protocol instances (ons/rns, one per protocol kind),
// view headers (views) and cached self entries (self) — plus one
// ID→slot table ([]int32, indexed directly by the monotonically
// assigned core.ID). View storage itself lives outside the headers, in
// one flat backing array indexed by slot*ViewSize (view.Arena): the
// compute and commit halves of a gossip round, the per-cycle SDM/GDM
// measurement and churn's swap-delete all stream contiguous memory
// instead of chasing per-node heap objects. Every
// hot-path lookup — message delivery, state reads, snapshots, sampling,
// measurement — is a bounds check and a slice index: no hashing, no
// pointer chasing, no interface dispatch (the engine calls the concrete
// ordering/ranking APIs and inlines the Cyclon exchange semantics over
// the arena directly). Churn is O(1) amortized per node: leavers are
// swap-deleted (the vacating view is rebound onto the freed arena
// block), and the attribute-ordered membership is maintained
// incrementally by a single merge pass per churn event. The engine
// scales to populations of 10⁶ nodes; see the scale-* scenario family,
// BenchmarkEngineScaling, and MemReport for the bytes/node budget.
//
// # Parallel cycles
//
// A cycle executes as a sequence of compute/commit rounds instead of a
// serial walk over a node permutation, so one run uses every core
// (Config.Workers) while remaining bit-identical at any worker count:
//
//   - Randomness is counter-based: each node's draws in a cycle come
//     from its own splitmix64 stream over (seed, node ID, cycle, phase)
//     — see rng.go — so no draw depends on iteration order. Churn,
//     bootstrap sampling and the overlapping-delivery shuffle stay on
//     the engine's serial stream.
//   - The membership phase runs partner selection on all nodes
//     concurrently against their own views, freezes every view, then
//     commits merges per view owner in initiator-slot order.
//   - The protocol phase computes every initiator's exchange (partner
//     choice, outgoing payloads) in parallel against a frozen
//     start-of-phase coordinate snapshot, then applies deliveries in a
//     deterministic slot-ordered commit. Non-overlapping ordering
//     exchanges re-validate the swap predicate on live values at commit
//     — the atomic model's "the view is up-to-date when a message is
//     sent" — so the atomic cycle model still produces zero
//     unsuccessful swaps; overlapping exchanges (Config.Concurrency)
//     keep their stale-delivery semantics. Ranking's one-way updates
//     additionally commit in parallel (per-target staging; see
//     protocolRound), since which estimator absorbs which update is
//     fixed by the compute phase alone.
//   - Measurements reduce over fixed-size chunks whose partial sums are
//     added in chunk order, keeping floating-point totals independent
//     of the worker count.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/telemetry"
	"github.com/gossipkit/slicing/internal/view"
)

// MembershipKind selects the peer-sampling substrate.
type MembershipKind int

// Available membership substrates.
const (
	// CyclonViews is the Cyclon variant of §4.3.2 (the paper's default).
	CyclonViews MembershipKind = iota + 1
	// UniformOracle re-draws views uniformly at random every cycle
	// (§5.3.2's idealized sampler).
	UniformOracle
)

// String implements fmt.Stringer.
func (k MembershipKind) String() string {
	switch k {
	case CyclonViews:
		return "cyclon"
	case UniformOracle:
		return "uniform"
	default:
		return fmt.Sprintf("membership(%d)", int(k))
	}
}

// Config parameterizes a simulation. The zero value is not runnable; see
// the field comments for required entries.
type Config struct {
	// N is the initial system size.
	N int
	// Slices is the number of equal slices (ignored when Partition is
	// set explicitly).
	Slices int
	// Partition overrides Slices with custom boundaries.
	Partition *core.Partition
	// ViewSize is the gossip view capacity c.
	ViewSize int
	// Protocol selects ordering (§4) or ranking (§5).
	Protocol proto.Kind
	// Policy selects JK or mod-JK when Protocol == proto.Ordering.
	Policy ordering.Policy
	// Membership selects the peer-sampling substrate. Default CyclonViews.
	Membership MembershipKind
	// Estimators builds each ranking node's estimator (Ranking only);
	// nil means the unbounded counters of Fig. 5.
	Estimators func() ranking.Estimator
	// Concurrency is the probability that a swap exchange is an
	// overlapping message (§4.5.2): 0 = the atomic cycle model, 0.5 =
	// the paper's "half concurrency", 1 = "full concurrency". An
	// overlapping exchange selects its partner from a cycle-start
	// snapshot ("the view might be out-of-date") and is delivered in
	// random order at the end of the cycle, where the swap predicate is
	// re-evaluated against live state — failed predicates are the
	// paper's unsuccessful swaps.
	Concurrency float64
	// StalePayloads additionally freezes the random value carried by an
	// overlapping swap request at its cycle-start snapshot instead of
	// refreshing it at delivery. This models a literal message-passing
	// reading of Fig. 2 under concurrency, where one-sided swaps
	// duplicate and lose random values (the drift extension experiment).
	// The paper's results correspond to the default (false): exchanges
	// execute on live values, only the selection is stale.
	StalePayloads bool
	// AttrDist draws the initial attribute values. Required.
	AttrDist dist.Source
	// Seed makes runs reproducible.
	Seed int64
	// Workers is the number of goroutines the engine spreads each
	// cycle's compute rounds across. 0 and 1 both mean single-threaded.
	// The worker count is purely a throughput knob: results are
	// bit-identical at any value (see the package comment), so it can be
	// tuned per machine without re-seeding anything.
	Workers int
	// Schedule and Pattern define churn; nil means a static system.
	Schedule churn.Schedule
	Pattern  churn.Pattern
	// Faults is the run's fault-injection plan (attribute drift,
	// byzantine misreporting, partition/heal, message chaos); nil means
	// an honest, well-behaved run. Every injection is a pure hash of the
	// seed (see package fault), so a faulted run stays bit-identical at
	// any worker count. See faults.go.
	Faults *fault.Plan
	// RecordGDM additionally records the global disorder measure each
	// cycle (Fig. 4(a)).
	RecordGDM bool
	// Telemetry, when non-nil, exports per-cycle gauges (cycle, live
	// size, SDM, GDM) and per-phase wall-clock histograms to the
	// registry. Timing never touches the engine's RNG streams, so an
	// instrumented run is bit-identical to an uninstrumented one.
	Telemetry *telemetry.Registry
}

// Config validation errors.
var (
	ErrConfigN        = errors.New("sim: N must be positive")
	ErrConfigView     = errors.New("sim: ViewSize must be positive")
	ErrConfigDist     = errors.New("sim: AttrDist is required")
	ErrConfigProtocol = errors.New("sim: unknown protocol")
	ErrConfigConc     = errors.New("sim: Concurrency must lie in [0,1]")
	ErrConfigWorkers  = errors.New("sim: Workers must be ≥ 0")
)

func (cfg *Config) validate() error {
	if cfg.N < 1 {
		return ErrConfigN
	}
	if cfg.Workers < 0 {
		return ErrConfigWorkers
	}
	if cfg.ViewSize < 1 {
		return ErrConfigView
	}
	if cfg.AttrDist == nil {
		return ErrConfigDist
	}
	if cfg.Concurrency < 0 || cfg.Concurrency > 1 {
		return ErrConfigConc
	}
	switch cfg.Protocol {
	case proto.Ordering, proto.Ranking:
	default:
		return ErrConfigProtocol
	}
	if cfg.Membership == 0 {
		cfg.Membership = CyclonViews
	}
	if cfg.Protocol == proto.Ordering && cfg.Policy == 0 {
		cfg.Policy = ordering.SelectMaxGain
	}
	return nil
}

// noSlot marks a departed (or never-assigned) ID in the slot table.
const noSlot = int32(-1)

// Engine is a running simulation. Not safe for concurrent use.
type Engine struct {
	// The per-node slice headers come first. The exchange and protocol
	// rounds read them once per node, inside loops that store through
	// other slices, so the compiler reloads each header from the Engine
	// on every iteration: these few lines of the struct are read a
	// million times per round. At the head they sit at fixed offsets
	// that no edit to Config or to a colder field below can move. When
	// they lay behind cfg, an 8-byte Config change shifted ids, rs,
	// snapBuf and swapR onto other cache lines and cost 4–9 % of
	// sim-ordering-1m's throughput.
	//
	// The node arena, struct-of-arrays: one entry per live node in each
	// of the parallel slices below, addressed by slot. Slots are stable
	// within a cycle; churn swap-deletes leavers and appends joiners, so
	// slot order changes only at churn boundaries.
	//
	// ids holds the node identifiers. Exactly one of ons/rns is in use
	// per run — protocol instances are stored BY VALUE, so a scan over
	// them streams memory instead of chasing a million heap pointers.
	// views holds the per-slot view headers; their entry storage is not
	// theirs but the slot's block of varena, so all view payloads of the
	// population form one contiguous entry array.
	ids []core.ID
	// slots maps core.ID → arena slot. IDs are assigned sequentially
	// from 1, so the table is indexed directly by ID — an ID lookup is a
	// bounds check and a slice load, never a hash. Departed IDs hold
	// noSlot. The table grows by one int32 per node ever created.
	slots []int32
	ons   []ordering.Node
	// Dense per-slot mirrors of the ordering nodes' hot scalars
	// (ordering runs only; nil under ranking). An ordering.Node spans
	// two cache lines, so any per-slot scan through the node array pulls
	// both; the exchange compute, coordinate snapshot, commit
	// re-validation and GDM assignment read these 8-byte mirrors
	// instead. rs tracks each node's live random value (updated at the
	// single swap-delivery choke point), attrs its attribute (updated by
	// the fault plane's setAttrAt).
	rs    []float64
	attrs []core.Attr
	views []*view.View
	// Per-cycle buffers the rounds index per node. Buffers written
	// inside parallel rounds are strictly partitioned: every slot is
	// written by exactly one worker.
	snapBuf []float64 // per-slot phase-start coordinates
	// Protocol-round staging, unboxed per protocol: each ordering slot's
	// ticked swap target (0 = no request this cycle) with its frozen
	// payload and overlap flag; each ranking slot's two UPD targets
	// (stride 2, 0 = none) with their resolved destination slots.
	swapTo     []core.ID
	swapR      []float64
	swapAttr   []core.Attr
	overlapBuf []bool
	// coordTab is the ID-indexed coordinate snapshot handed to every
	// protocol tick (see proto.CoordTable): live IDs refreshed from
	// snapBuf each protocol round, departed IDs pinned at NaN by
	// removeNode, the growth tail NaN-initialized. One random load per
	// neighbor resolve instead of the slot-table double hop.
	coordTab proto.CoordTable
	// Membership-round buffers: the per-slot partner choice, the frozen
	// per-initiator payload windows (strided ViewSize+1 per slot — a
	// window carries the initiator's request on the way in and, once the
	// target has absorbed it, is reused for that initiator's reply on
	// the way back), and the counting-sorted per-target initiator lists
	// (initHead, initPos, initList) that give the commit its
	// deterministic order.
	memTarget []int32
	reqStore  []view.Entry
	reqLen    []int32
	initList  []int32
	rns       []ranking.Node
	updTo     []core.ID
	rankDst   []int32

	cfg  Config
	part core.Partition
	rng  *rand.Rand

	// self caches each node's SelfEntry (refreshed by
	// refreshSelfEntries; see there for the staleness contract).
	self   []view.Entry
	varena *view.Arena
	// members is the live membership in the attribute-based total order,
	// maintained incrementally: one merge pass per churn event (see
	// mergeMembers), zero sorts at steady state. It feeds the churn
	// patterns and the per-cycle SDM.
	members []core.Member
	nextID  core.ID
	cycle   int

	sdm       metrics.Series
	gdm       metrics.Series
	unsucc    metrics.Series // % unsuccessful swaps per cycle
	size      metrics.Series // live system size per cycle
	pollution metrics.Series // liar fraction of the targeted slice per cycle

	// Message counters (cumulative).
	Delivered MessageCounts

	prevReqReceived uint64
	prevFailed      uint64
	// Engine-side mirrors of the ordering Stats sums the per-cycle
	// unsuccessful-swap series needs: bumped at the swap-delivery choke
	// point (deliverSwap), so the measurement reads two counters instead
	// of scanning a million Node structs every cycle. Identical to the
	// live nodes' Stats sums by construction — deliverSwap is the only
	// ApplySwapRequest caller in the engine, and removeNode subtracts a
	// departing node's counts (checkArenaConsistency pins this).
	recvTotal     uint64
	failRecvTotal uint64
	// Cumulative wall-clock nanoseconds per cycle phase; see
	// telemetry.go. Always on (four clock reads per cycle, two more in a
	// gossiping membership round), exported through Result so every perf
	// artifact carries its own breakdown. memberNS splits the membership
	// total into its sub-phases.
	phaseNS  [phaseCount]int64
	memberNS [memberPartCount]int64

	// Fault-plane state; see faults.go. faults applies the attribute
	// faults and tallies every injection, net caches the cycle's message
	// faults, and prevFC is the tally telemetry last published.
	faults *fault.Applier
	net    fault.Net
	prevFC FaultCounts

	// workers is the resolved compute-worker count (≥ 1); ws holds one
	// scratch block per worker. See parallel.go.
	workers int
	ws      []simWorker

	// tel is nil unless Config.Telemetry was set; see telemetry.go.
	tel *engineTel

	// The remaining reusable per-cycle buffers. Outside the parallel
	// rounds the engine is single-threaded, and none of these escape a
	// Step call, so reuse keeps the hot path (snapshot, freeze, measure)
	// allocation-free at steady state.
	believedBuf []int // per-cycle believed slice indices, attr order
	// slotBelieved stages the per-slot believed slice of the current
	// measurement in slot order before the members-order gather.
	slotBelieved []int32
	joinersBuf   []core.Member // joiners of the current churn event
	membersBuf   []core.Member // double buffer for the membership merge
	deferredBuf  []deferredEnv
	initHead     []int32
	initPos      []int32
	// Measurement buffers: fixed-chunk partial sums plus the GDM rank
	// scratch (bucketHead backs the bucket sort of measureGDM).
	chunkSums  []float64
	alphaBuf   []int32
	rhoBuf     []int32
	rBuf       []float64
	idxBuf     []int32
	bucketBuf  []int32
	bucketHead []int32
	// sampler backs the engine-stream uniform draws (bootstrap views);
	// each worker carries its own for the oracle round.
	sampler sampler
}

// MessageCounts tallies delivered protocol messages by type, plus
// messages dropped because their destination had left.
type MessageCounts struct {
	ViewRequests uint64
	ViewReplies  uint64
	SwapRequests uint64
	SwapReplies  uint64
	RankUpdates  uint64
	Dropped      uint64
}

// Total returns all delivered messages.
func (m MessageCounts) Total() uint64 {
	return m.ViewRequests + m.ViewReplies + m.SwapRequests + m.SwapReplies + m.RankUpdates
}

// New builds a simulation engine and records the initial (cycle-0)
// measurements.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	part := core.MustEqual(1)
	if cfg.Partition != nil {
		part = *cfg.Partition
	} else if cfg.Slices > 0 {
		p, err := core.Equal(cfg.Slices)
		if err != nil {
			return nil, err
		}
		part = p
	} else {
		return nil, core.ErrNoSlices
	}
	if err := cfg.Faults.Validate(part.Len()); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	e := &Engine{
		cfg:     cfg,
		part:    part,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		ids:     make([]core.ID, 0, cfg.N),
		views:   make([]*view.View, 0, cfg.N),
		self:    make([]view.Entry, 0, cfg.N),
		varena:  view.NewArena(cfg.ViewSize, cfg.N),
		slots:   make([]int32, 1, cfg.N+1), // slot 0 is the unused ID 0
		workers: workers,
		ws:      make([]simWorker, workers),
		sdm:     metrics.Series{Name: "sdm"},
		gdm:     metrics.Series{Name: "gdm"},
		unsucc:  metrics.Series{Name: "unsuccessful%"},
		size:    metrics.Series{Name: "n"},

		pollution: metrics.Series{Name: "pollution"},
		faults:    fault.NewApplier(cfg.Faults, cfg.Seed, part),
	}
	switch cfg.Protocol {
	case proto.Ordering:
		e.ons = make([]ordering.Node, 0, cfg.N)
	case proto.Ranking:
		e.rns = make([]ranking.Node, 0, cfg.N)
	}
	e.slots[0] = noSlot
	if cfg.Telemetry != nil {
		e.tel = newEngineTel(cfg.Telemetry)
	}
	for i := 0; i < cfg.N; i++ {
		attr := core.Attr(cfg.AttrDist.Sample(e.rng))
		if err := e.addNode(attr); err != nil {
			return nil, err
		}
	}
	// The one full membership sort of a run; churn events maintain the
	// order incrementally from here on.
	e.members = make([]core.Member, 0, cfg.N)
	for i := range e.ids {
		e.members = append(e.members, e.memberAt(int32(i)))
	}
	core.SortMembers(e.members)
	e.bootstrapViews(0)
	e.record()
	return e, nil
}

// slotOf resolves an ID to its arena slot: one bounds check and one
// slice load. The second result is false for departed or unknown IDs.
func (e *Engine) slotOf(id core.ID) (int32, bool) {
	if id < 1 || int(id) >= len(e.slots) {
		return noSlot, false
	}
	s := e.slots[id]
	return s, s >= 0
}

// memberAt reads slot s's identity and current attribute.
func (e *Engine) memberAt(s int32) core.Member {
	if e.cfg.Protocol == proto.Ordering {
		return e.ons[s].Member()
	}
	return e.rns[s].Member()
}

// setAttrAt routes a forced attribute change to slot s's protocol node
// — the single hook the fault plane mutates attributes through, which
// is what keeps the dense attribute mirror honest.
func (e *Engine) setAttrAt(s int32, a core.Attr) {
	if e.cfg.Protocol == proto.Ordering {
		e.ons[s].SetAttr(a)
		e.attrs[s] = a
	} else {
		e.rns[s].SetAttr(a)
	}
}

// selfEntryAt builds slot s's current gossip self entry.
func (e *Engine) selfEntryAt(s int32) view.Entry {
	if e.cfg.Protocol == proto.Ordering {
		return e.ons[s].SelfEntry()
	}
	return e.rns[s].SelfEntry()
}

// addNode creates a node with the next identifier and appends it to the
// arena. Views start empty and the attribute-ordered membership is not
// updated; the caller bootstraps views and merges the membership. Once
// core.MaxID is issued it fails with core.ErrIDRange instead of wrapping
// onto the reserved ID 0.
func (e *Engine) addNode(attr core.Attr) error {
	if e.nextID == core.MaxID {
		return core.ErrIDRange
	}
	e.nextID++
	id := e.nextID
	slot := len(e.ids)
	if e.varena.EnsureSlots(slot + 1) {
		// The backing arrays moved; every bound view still points into
		// the old ones. Rebind each onto its (already copied) block.
		for s, v := range e.views {
			v.Rebind(e.varena.Block(s))
		}
	}
	eb, ib, ob := e.varena.Block(slot)
	v := view.NewBound(e.cfg.ViewSize, eb, ib, ob)
	switch e.cfg.Protocol {
	case proto.Ordering:
		r0 := 1 - e.rng.Float64() // uniform in (0,1]
		n, err := ordering.NewNode(ordering.Config{
			ID: id, Attr: attr, Partition: e.part,
			Policy: e.cfg.Policy, View: v,
			InitialR: r0,
		})
		if err != nil {
			return err
		}
		e.ons = append(e.ons, *n)
		e.rs = append(e.rs, r0)
		e.attrs = append(e.attrs, attr)
	case proto.Ranking:
		var est ranking.Estimator
		if e.cfg.Estimators != nil {
			est = e.cfg.Estimators()
		} else {
			est = ranking.NewCounter()
		}
		n, err := ranking.NewNode(ranking.Config{
			ID: id, Attr: attr, Partition: e.part,
			Estimator: est, View: v,
		})
		if err != nil {
			return err
		}
		e.rns = append(e.rns, *n)
	}
	e.slots = append(e.slots, int32(slot))
	e.ids = append(e.ids, id)
	e.views = append(e.views, v)
	e.self = append(e.self, e.selfEntryAt(int32(slot)))
	return nil
}

// refreshSelfEntries re-caches every live node's SelfEntry. Called once
// per cycle for uniform-oracle runs (before the membership phase, so
// oracle draws see coordinates at most one phase old — exactly what a
// fresh gossip entry would carry) and once per joining churn event
// (before bootstrap views are sampled). Cyclon exchanges read the live
// node state directly and never consume the cache. Each
// slot is written by exactly one worker, so the pass parallelizes
// trivially.
func (e *Engine) refreshSelfEntries() {
	if e.cfg.Protocol == proto.Ordering {
		e.parallelFor(len(e.ids), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.self[i] = e.ons[i].SelfEntry()
			}
		})
	} else {
		e.parallelFor(len(e.ids), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.self[i] = e.rns[i].SelfEntry()
			}
		})
	}
}

// applyChurn executes the cycle's churn event (§3.3): leavers vanish
// without notice, joiners arrive with fresh state and a bootstrap view.
// The whole event costs one merge pass over the membership — leavers are
// swap-deleted from the arena in O(1) each, and both PickLeavers and
// every JoinAttr draw read the same pre-event attribute-ordered
// membership, so no event ever re-sorts the population. Churn runs
// single-threaded on the engine stream: events are a few nodes per
// cycle, and keeping their draws serial is what lets the per-node
// streams stay counter-based. It reports whether it refreshed the
// self-entry cache, so Step can avoid a duplicate refresh pass for
// oracle runs.
func (e *Engine) applyChurn() (refreshed bool) {
	if e.cfg.Schedule == nil || e.cfg.Pattern == nil {
		return false
	}
	ev := e.cfg.Schedule.At(e.cycle, len(e.ids))
	if ev.Leave == 0 && ev.Join == 0 {
		return false
	}
	members := e.members // pre-event membership, attribute order
	if ev.Leave > 0 {
		for _, id := range e.cfg.Pattern.PickLeavers(e.rng, members, ev.Leave) {
			e.removeNode(id)
		}
	}
	joiners := e.joinersBuf[:0]
	for i := 0; i < ev.Join; i++ {
		attr := e.cfg.Pattern.JoinAttr(e.rng, members)
		if err := e.addNode(attr); err != nil {
			// addNode fails only on invalid static configuration, which
			// New has already validated, or once the run has issued
			// core.MaxID: a join past it would alias a live node.
			panic(err)
		}
		joiners = append(joiners, core.Member{ID: e.nextID, Attr: attr})
	}
	e.joinersBuf = joiners
	e.mergeMembers(joiners)
	if ev.Join > 0 {
		// Bootstrap views sample the cached self entries; re-cache so
		// joiners see current coordinates, not cycle-of-creation ones.
		e.refreshSelfEntries()
		e.bootstrapViews(len(e.ids) - ev.Join)
		return true
	}
	return false
}

// bootstrapViews fills the view of every node in slots [from, len) with
// ViewSize random other nodes. The sampler's output is distinct and
// excludes the owner, so the bulk Reset is identical to the Add loop
// (TestResetMatchesClearAdd) minus its per-entry duplicate scans — at
// construction that is O(c²) saved per node, a visible slice of a
// million-node run's wall time (a scenario's cycles/sec includes engine
// construction).
func (e *Engine) bootstrapViews(from int) {
	for i := from; i < len(e.ids); i++ {
		e.views[i].Reset(e.sampleEntries(e.rng, e.cfg.ViewSize, e.ids[i]))
	}
}

// sampleEntries returns cached self entries for up to k distinct random
// live nodes, excluding one id, through the engine's serial sampler. It
// backs view bootstrapping (engine stream); the per-cycle oracle
// re-draws run on per-worker samplers instead (oracleRound). The
// returned slice is a reusable buffer, valid until the next call;
// callers copy the entries into a view immediately.
func (e *Engine) sampleEntries(rng core.RNG, k int, exclude core.ID) []view.Entry {
	return e.sampler.sample(e.ids, e.self, rng, k, exclude)
}

// sampler is the rejection-sampling scratch behind uniform draws of
// live nodes. Rejection sampling keeps a draw O(k) for k ≪ n — the
// oracle draws once per node per cycle, so a full permutation here
// would make uniform-sampler runs quadratic in the population — and the
// generation-stamped seenGen slice keeps each rejection test a single
// slice load instead of a map probe: seenGen[i] == gen means slot i was
// already drawn this call.
type sampler struct {
	seenGen []uint32
	gen     uint32
	buf     []view.Entry
	// idx backs the draw-ahead in sample: the k slot indices a call will
	// consume are drawn up front and their self entries prefetched, so
	// the k random-access misses overlap instead of serializing behind
	// the accept loop's seen-check branch.
	idx []int
}

// sample fills the sampler's reusable buffer with the cached self
// entries of up to k distinct uniformly drawn live slots, excluding one
// id. ids and selfs are the engine's slot-parallel slices.
func (sp *sampler) sample(ids []core.ID, selfs []view.Entry, rng core.RNG, k int, exclude core.ID) []view.Entry {
	n := len(ids)
	out := sp.buf[:0]
	if n == 0 || k <= 0 {
		return out
	}
	if k >= n {
		for i := range ids {
			if ids[i] != exclude {
				out = append(out, selfs[i])
			}
		}
		sp.buf = out
		return out
	}
	if cap(sp.seenGen) < n {
		sp.seenGen = make([]uint32, n)
	}
	sp.seenGen = sp.seenGen[:n]
	sp.gen++
	if sp.gen == 0 { // wrapped: stale stamps could collide, reset them
		clear(sp.seenGen)
		sp.gen = 1
	}
	gen := sp.gen
	// Draw the first k indices ahead of the accept loop and prefetch
	// their self entries. The accept loop's reads are random-access and
	// sit behind its seen-check branch; prefetched here, their misses
	// are all in flight at once and nothing waits for them (plain
	// warming loads would: each must complete before it retires). The
	// RNG consumption order is unchanged — the accept loop replays the
	// same draws from idx before falling back to live draws for the
	// (rare) rejection overflow.
	if cap(sp.idx) < k {
		sp.idx = make([]int, k)
	}
	idx := sp.idx[:k]
	for j := range idx {
		i := rng.Intn(n)
		idx[j] = i
		prefetchWindow(selfs[i : i+1])
	}
	drawn := 0
	j := 0
	for len(out) < k && drawn < n {
		var i int
		if j < len(idx) {
			i = idx[j]
			j++
		} else {
			i = rng.Intn(n)
		}
		if sp.seenGen[i] == gen {
			continue
		}
		sp.seenGen[i] = gen
		drawn++
		if ids[i] == exclude {
			continue
		}
		out = append(out, selfs[i])
	}
	sp.buf = out
	return out
}
