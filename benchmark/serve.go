package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/scenario"
	"github.com/gossipkit/slicing/internal/serving"
	"github.com/gossipkit/slicing/internal/telemetry"
)

type queryKind uint8

const (
	querySlice queryKind = iota
	queryTopK
	querySnapshot
)

var queryKindNames = [...]string{"query /slice", "query /topk", "query /snapshot"}

// query is one generated request: the benchmark draws the mix and the
// attributes from the seed, the program only ever sees the paths.
type query struct {
	kind queryKind
	path string
	attr float64 // the queried attribute (/slice only)
}

// makeQueries draws n queries of the 85/10/5 mix. The load phases walk
// the list round-robin.
func makeQueries(seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, n)
	for i := range qs {
		switch u := rng.Float64(); {
		case u < shareSlice:
			attr := attrLo + rng.Float64()*(attrHi-attrLo)
			qs[i] = query{kind: querySlice, path: "/slice?attr=" + strconv.FormatFloat(attr, 'g', -1, 64), attr: attr}
		case u < shareSlice+shareTopK:
			qs[i] = query{kind: queryTopK, path: "/topk?frac=" + strconv.FormatFloat(topKFrac, 'g', -1, 64)}
		default:
			qs[i] = query{kind: querySnapshot, path: "/snapshot"}
		}
	}
	return qs
}

// answer is what the client checks of any reply.
type answer struct {
	Rank      float64 `json:"rank"`
	Slice     int     `json:"slice"`
	Staleness struct {
		Bound float64 `json:"bound"`
	} `json:"staleness"`
}

// loadStats tallies one client worker's (or one phase's) queries.
type loadStats struct {
	done, failed int
	boundSum     float64
	boundMax     float64
	bytes        int64
}

func (s *loadStats) merge(o loadStats) {
	s.done += o.done
	s.failed += o.failed
	s.boundSum += o.boundSum
	s.boundMax = max(s.boundMax, o.boundMax)
	s.bytes += o.bytes
}

// conn is one keep-alive HTTP/1.1 connection driven by one goroutine:
// it writes the request and parses the response itself. net/http's
// client adds two goroutines and several hand-offs per connection, and
// on two cores their scheduling is most of the run-to-run noise.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	out  []byte
	body bytes.Buffer
}

const queryTimeout = 5 * time.Second

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// get issues GET path and leaves the response body in c.body.
func (c *conn) get(path string) (status int, err error) {
	c.out = append(c.out[:0], "GET "...)
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: benchmark\r\n\r\n"...)
	if err := c.nc.SetDeadline(time.Now().Add(queryTimeout)); err != nil {
		return 0, err
	}
	if _, err := c.nc.Write(c.out); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// loadClient issues queries over serveConns connections per server, one
// worker goroutine each, and checks every answer.
type loadClient struct {
	part    core.Partition
	queries []query
	tr      *tracer
	next    atomic.Int64 // numbers the queries across phases
	conns   map[string][]*conn
}

func newLoadClient(part core.Partition, queries []query, tr *tracer) *loadClient {
	return &loadClient{part: part, queries: queries, tr: tr, conns: map[string][]*conn{}}
}

// connect opens the connections to a server; the phases reuse them.
func (c *loadClient) connect(addr string) error {
	for len(c.conns[addr]) < serveConns {
		cn, err := dial(addr)
		if err != nil {
			return err
		}
		c.conns[addr] = append(c.conns[addr], cn)
	}
	return nil
}

// close closes every connection; it may be called twice.
func (c *loadClient) close() {
	for addr, cs := range c.conns {
		for _, cn := range cs {
			cn.nc.Close()
		}
		delete(c.conns, addr)
	}
}

// do issues the next query on cn and checks the answer: HTTP 200, the
// body decodes, the slice index is the partition's index of the returned
// rank, and the staleness bound lies in [0,1].
func (c *loadClient) do(cn *conn, st *loadStats) bool {
	i := int(c.next.Add(1) - 1)
	q := c.queries[i%len(c.queries)]
	t0 := time.Now()
	ok, bound := c.fetch(cn, q)
	if c.tr != nil && i%100 == 0 {
		// A 1-in-100 sample keeps the trace small next to ~10⁵ queries.
		c.tr.record(rootSpan, queryKindNames[q.kind], t0, time.Now())
	}
	if !ok {
		st.failed++
		return false
	}
	st.done++
	st.boundSum += bound
	st.boundMax = max(st.boundMax, bound)
	st.bytes += int64(cn.body.Len())
	return true
}

func (c *loadClient) fetch(cn *conn, q query) (bool, float64) {
	status, err := cn.get(q.path)
	if err != nil || status != http.StatusOK {
		return false, 0
	}
	var a answer
	if err := json.Unmarshal(cn.body.Bytes(), &a); err != nil {
		return false, 0
	}
	if q.kind != queryTopK && a.Slice != c.part.Index(a.Rank) {
		return false, 0
	}
	b := a.Staleness.Bound
	return b >= 0 && b <= 1, b
}

// closedSlice is one slice of the closed loop: every worker sends its
// next query as soon as the previous one is answered, for dur.
func (c *loadClient) closedSlice(addr string, dur time.Duration) (loadStats, time.Duration) {
	var total loadStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for _, cn := range c.conns[addr] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st loadStats
			for time.Now().Before(deadline) {
				c.do(cn, &st)
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, time.Since(start)
}

// sliceLen is the closed loop's slice: four gossip periods, so every
// slice overlaps the same number of gossip steps.
const sliceLen = time.Duration(4 * gossipEveryS * float64(time.Second))

// closedLoop runs the closed loop as back-to-back slices and returns the
// totals with each slice's queries per second. Throughput is reported as
// the median slice: on a shared two-core box a run's total is dragged by
// whatever stall happened to land in it, the median slice is not.
func (c *loadClient) closedLoop(addr string, n int) (loadStats, []float64) {
	var total loadStats
	var qps []float64
	for i := 0; i < n; i++ {
		st, wall := c.closedSlice(addr, sliceLen)
		total.merge(st)
		qps = append(qps, float64(st.done)/wall.Seconds())
	}
	return total, qps
}

// openResult is phase B: per-request latency measured from the moment
// the request was due, summarized per half-second window, and how late
// the generator dispatched.
type openResult struct {
	stats    loadStats
	answered int
	p50MS    []float64 // per window
	p90MS    []float64
	p99MS    []float64
	late     int // dispatched more than 1 ms after due
	sent     int
	wall     time.Duration
}

// quietest is the latency statistic of phase B: the lowest value over
// the windows. On a shared two-core virtual machine a disturbance —
// another tenant, a hypervisor pause — only ever adds latency, and it
// lasts anywhere from milliseconds to a whole run; the median window
// then measures the neighbours, while the quietest window still measures
// the program (gossip contention included: every window overlaps five
// gossip steps).
func quietest(windows []float64) float64 {
	if len(windows) == 0 {
		return 0
	}
	return slices.Min(windows)
}

// openLoop sends total requests on a fixed schedule of rate per second,
// over the same connections. Request i is due at start+i/rate whatever
// happened to the ones before it; a worker that falls behind sends
// immediately, and the wait shows up in the latency.
func (c *loadClient) openLoop(addr string, rate, total int) openResult {
	lat := make([]float64, total)
	okAt := make([]bool, total)
	interval := time.Second / time.Duration(rate)
	var res openResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	var slot atomic.Int64
	start := time.Now()
	for _, cn := range c.conns[addr] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st loadStats
			late := 0
			for {
				i := int(slot.Add(1) - 1)
				if i >= total {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				if time.Since(due) > time.Millisecond {
					late++
				}
				okAt[i] = c.do(cn, &st)
				lat[i] = ms(time.Since(due))
			}
			mu.Lock()
			res.stats.merge(st)
			res.late += late
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.sent = total
	// Half-second windows by due time (rate/2 requests, so a window's p99
	// has 1 % of that beyond it); a trailing partial window is left out.
	per := rate / 2
	for lo := 0; lo+per <= total; lo += per {
		var w []float64
		for i := lo; i < lo+per; i++ {
			if okAt[i] {
				w = append(w, lat[i])
			}
		}
		sort.Float64s(w)
		res.answered += len(w)
		res.p50MS = append(res.p50MS, percentile(w, 0.5))
		res.p90MS = append(res.p90MS, percentile(w, 0.9))
		res.p99MS = append(res.p99MS, percentile(w, 0.99))
	}
	return res
}

// gossip steps the cluster once per gossipEveryS of wall time, steps
// times, while the clients query: the queries read node state under the
// same mutexes these steps write. It returns when the last step is done.
func gossip(st *liveStepper, start time.Time, steps int) {
	every := time.Duration(gossipEveryS * float64(time.Second))
	for i := 0; i < steps; i++ {
		if d := time.Until(start.Add(time.Duration(i) * every)); d > 0 {
			time.Sleep(d)
		}
		st.step(true)
	}
}

// servePlane is the serve workload's system under test: a warmed live
// cluster with a query server on loopback.
type servePlane struct {
	lc    *scenario.LiveCluster
	q     *serving.ClusterQuerier
	srv   *serving.Server
	sdm0  float64
	built time.Duration // wall time of MaterializeLive
}

func (p *servePlane) stop() {
	if p == nil {
		return
	}
	if p.srv != nil {
		_ = p.srv.Shutdown(context.Background()) // teardown: nothing left to do on error
	}
	p.lc.Stop()
}

// startServePlane is the serve set-up: cluster, warm cycles, querier,
// server.
func startServePlane(w workload, tr *tracer) (*servePlane, error) {
	lc, built, err := startLive(w.spec, scenario.Instrumentation{}, tr)
	if err != nil {
		return nil, err
	}
	p := &servePlane{lc: lc, sdm0: lc.Cluster.SDM(), built: built}
	for c := 0; c < w.warm; c++ {
		if err := lc.Step(c); err != nil {
			p.stop()
			return nil, err
		}
	}
	p.q, err = serving.NewClusterQuerier(lc.Cluster, serving.RankingCalibration)
	if err != nil {
		p.stop()
		return nil, err
	}
	t0 := time.Now()
	p.srv = serving.NewServer(p.q, serving.Options{Addr: "127.0.0.1:0"})
	err = p.srv.Start()
	tr.record(rootSpan, "serving.Server.Start", t0, time.Now())
	if err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// runServe measures the serve workload.
func runServe(w workload, o options) (*Result, *tracer, error) {
	res, tr := newResult(w, o)
	steps := w.timedCycles(o.seconds, o.trace)
	window := time.Duration(float64(steps) * gossipEveryS * float64(time.Second))
	share := closedShare
	if o.trace {
		// The traced closed loop rotates its slices over three
		// configurations, so it takes the larger share of a shorter window.
		share = 0.7
	}
	// At least one closed slice and one open window, however short the
	// run; gossip keeps stepping until the clients are done.
	nSlices := max(1, int(float64(window)*share/float64(sliceLen)))
	openTotal := max(openRate/2, int((window-time.Duration(nSlices)*sliceLen).Seconds()*openRate))
	clientsFor := time.Duration(nSlices)*sliceLen + time.Duration(openTotal)*time.Second/openRate
	steps = max(steps, int(math.Ceil(clientsFor.Seconds()/gossipEveryS)))
	queries := makeQueries(w.spec.Seed, 1<<16)

	base := heapLive()
	var plane *servePlane
	setups, err := repeatSetup(o, func() { plane.stop(); plane = nil }, func() error {
		var err error
		plane, err = startServePlane(w, tr)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	defer plane.stop()
	client := newLoadClient(plane.lc.Part, queries, tr)
	defer client.close()
	addr := plane.srv.Addr()
	if err := client.connect(addr); err != nil {
		return nil, nil, err
	}
	// The handler path warms before anything is measured.
	if st, _ := client.closedSlice(addr, sliceLen); st.done == 0 {
		return nil, nil, fmt.Errorf("serve: no query answered during warm-up (%d failed)", st.failed)
	}
	telAddr := ""
	if o.trace {
		servingKernelMetrics(res, o, plane, client)
		telSrv := serving.NewServer(plane.q, serving.Options{Addr: "127.0.0.1:0", Telemetry: telemetry.NewRegistry()})
		if err := telSrv.Start(); err != nil {
			return nil, nil, err
		}
		// Connections go first: Shutdown waits out its drain timeout on a
		// connection that is open but has not carried a request yet.
		defer func() {
			client.close()
			_ = telSrv.Shutdown(context.Background()) // teardown: nothing left to do on error
		}()
		telAddr = telSrv.Addr()
		if err := client.connect(telAddr); err != nil {
			return nil, nil, err
		}
	}

	stepper := newLiveStepper(plane.lc, tr)
	stepper.cycle = w.warm
	gossipDone := make(chan struct{})
	go func() {
		defer close(gossipDone)
		gossip(stepper, time.Now(), steps)
	}()

	var closed loadStats
	var qps []float64
	// Traced: slice i runs configuration i%3 — the plain server without
	// query spans, the plain server with them, the instrumented server
	// without — so all three see the same drift.
	var qpsBy [3][]float64
	if !o.trace {
		closed, qps = client.closedLoop(addr, nSlices)
	} else {
		addrs := [3]string{addr, addr, telAddr}
		for i := 0; i < nSlices; i++ {
			cfg := i % 3
			tr.setEnabled(cfg == 1)
			st, q := client.closedLoop(addrs[cfg], 1)
			closed.merge(st)
			qpsBy[cfg] = append(qpsBy[cfg], q...)
		}
		tr.setEnabled(true)
	}
	open := client.openLoop(addr, openRate, openTotal)
	<-gossipDone
	run := stepper.run
	heap := heapLive() - base

	res.check("query", closed.done+closed.failed+open.sent, closed.failed+open.stats.failed,
		"non-200, timeout, undecodable answer, slice ≠ Partition.Index(rank), or bound outside [0,1]")
	res.check("step", steps, run.badSteps, "LiveCluster.Step returned an error")
	ratio := sdmRatio(plane.sdm0, run.sdm[len(run.sdm)-1])
	res.expect("sdm-falls", ratio < 1, "final_sdm_ratio %v is not below 1", ratio)
	res.Fingerprint = liveFingerprint(plane.lc, run)
	res.Samples = open.answered
	res.Series = qps

	if !o.trace {
		res.endToEndMetrics(setups, median(qps), quietest(open.p50MS), quietest(open.p90MS), heap, w.spec.N, ratio)
	} else {
		plainQPS := median(qpsBy[0])
		res.add("serving.bytes_per_answer", float64(closed.bytes)/float64(closed.done), "B")
		res.add("serving.mean_bound", closed.boundSum/float64(closed.done), "ratio")
		res.add("serving.max_bound", closed.boundMax, "ratio")
		res.add("serving.telemetry_overhead_frac", 1-median(qpsBy[2])/plainQPS, "ratio")
		res.add("trace.overhead_frac", 1-median(qpsBy[1])/plainQPS, "ratio")
		res.add("serving.query_ms_p99", median(open.p99MS), "ms")
		res.add("loadgen.late_frac", float64(open.late)/float64(open.sent), "ratio")
		res.add("loadgen.achieved_rate", float64(open.sent)/open.wall.Seconds(), "1/s")
		res.add("runtime.new_cluster_ms", ms(plane.built), "ms")
		runtimeLayerMetrics(res, run)
	}
	runtime.KeepAlive(plane)
	return res, tr, nil
}
