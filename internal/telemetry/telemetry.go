// Package telemetry is the repo's stdlib-only metrics plane: atomic
// counters, gauges, and fixed-bucket histograms collected in a Registry
// and exposed in Prometheus text format. It exists so a running
// cluster, query plane, or long simulation is observable while it runs
// — the paper's SDM (§3) is argued as an *online* quality signal, and
// BENCH artifacts after the fact cannot show shard backlog, gossip
// loss, or convergence in flight.
//
// Design constraints, in order:
//
//   - Hot-path cost must be a handful of atomic ops (the serving plane
//     gates on ≤5% qps overhead with telemetry enabled), so metrics are
//     lock-free after registration and nothing allocates on Observe/Inc.
//   - No dependencies: the exposition writer is hand-rolled against the
//     Prometheus text format (version 0.0.4), not a client library.
//   - Sampled state beats counted state where reads are cheap: callback
//     metrics (CounterFunc/GaugeFunc) read existing engine state at
//     scrape time, so instrumenting the scheduler's queues costs nothing
//     between scrapes.
//
// A Registry is an isolated namespace; components accept an optional
// *Registry and register their instruments at construction. Re-registering
// the same name+labels returns the existing instrument (callback metrics
// rebind instead), so sequential runs can share one registry.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key=value pair attached to an instrument, e.g.
// {shard="3"} or {endpoint="/slice"}. Labels distinguish series within
// one metric family; they are fixed at registration.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric kinds, as exposed on the TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Nil-safe so call sites need no telemetry guard.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an arbitrary float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets. Bounds
// are upper bounds in ascending order; an implicit +Inf bucket catches
// the tail. Observe is a binary search plus two atomic adds and one CAS
// loop for the sum — no locks, no allocation.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Bounds lists are short (≤ ~20); linear scan beats sort.Search's
	// function-call overhead and is branch-predictable for typical
	// latency distributions (most observations land in the low buckets).
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns cumulative bucket counts aligned with bounds plus
// the +Inf bucket.
func (h *Histogram) snapshot() []uint64 {
	cum := make([]uint64, len(h.buckets))
	var acc uint64
	for i := range h.buckets {
		acc += h.buckets[i].Load()
		cum[i] = acc
	}
	return cum
}

// ExpBuckets returns n upper bounds growing geometrically from start by
// factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start>0, factor>1, n>=1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns n upper bounds from start in steps of width.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("telemetry: LinearBuckets needs width>0, n>=1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// LatencyBuckets is the default bounds for second-denominated latency
// histograms: 100µs doubling to ~3.3s.
var LatencyBuckets = ExpBuckets(100e-6, 2, 16)

// instrument is one registered series: a concrete collector or a
// callback sampled at scrape time.
type instrument struct {
	labels    []Label
	labelSig  string // canonical {k="v",...} form, "" when unlabeled
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// family groups the series of one metric name under a shared HELP/TYPE.
type family struct {
	name   string
	help   string
	kind   string
	series []*instrument
	byKey  map[string]*instrument
}

// Registry is an isolated set of named instruments with a Prometheus
// text-format exposition. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or returns the existing) counter name{labels...}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	ins := r.register(name, help, kindCounter, labels)
	if ins.counter == nil {
		ins.counter = &Counter{}
	}
	return ins.counter
}

// Gauge registers (or returns the existing) gauge name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	ins := r.register(name, help, kindGauge, labels)
	if ins.gauge == nil {
		ins.gauge = &Gauge{}
	}
	return ins.gauge
}

// Histogram registers (or returns the existing) histogram with the
// given upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: %s bounds not ascending", name))
		}
	}
	ins := r.register(name, help, kindHistogram, labels)
	if ins.hist == nil {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Uint64, len(bounds)+1)
		ins.hist = h
	}
	return ins.hist
}

// CounterFunc registers a counter sampled from fn at scrape time.
// Re-registering the same name+labels rebinds fn — a fresh engine run
// sharing a registry takes over the series from its predecessor.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	ins := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	ins.counterFn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge sampled from fn at scrape time, with the
// same rebind-on-reregister behavior as CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	ins := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	ins.gaugeFn = fn
	r.mu.Unlock()
}

// Names returns the sorted metric family names — the surface the golden
// test locks additive-only.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// register finds or creates the series for name{labels} and checks kind
// consistency. Name and label-key collisions across kinds are
// programmer errors and panic at construction, never at scrape.
func (r *Registry) register(name, help, kind string, labels []Label) *instrument {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label key %q on %s", l.Key, name))
		}
	}
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, byKey: make(map[string]*instrument)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s and %s", name, fam.kind, kind))
	}
	ins := fam.byKey[sig]
	if ins == nil {
		ins = &instrument{labels: append([]Label(nil), labels...), labelSig: sig}
		fam.byKey[sig] = ins
		fam.series = append(fam.series, ins)
		sort.Slice(fam.series, func(i, j int) bool { return fam.series[i].labelSig < fam.series[j].labelSig })
	}
	return ins
}

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// labelSig renders labels canonically: sorted by key, escaped, in
// {k="v",...} form.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the text-format label escapes.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
