package slicing_test

// End-to-end exercise of the query plane through the public facade
// only: a live cluster on a VirtualClock is built with NewCluster,
// wrapped by NewClusterQuerier and mounted on NewQueryServer, driven to
// convergence in virtual time (no wall-clock sleeps), and then queried
// over real HTTP. Answer quality is judged
// against the same slice-distance metric the paper's SDM sums, with the
// tolerance derived from the cluster's own measured disorder — the
// query plane may not be meaningfully worse than the protocol state it
// serves from.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gossipkit/slicing"
)

const servePeriod = 2 * time.Millisecond

// sliceResp mirrors the /slice JSON shape.
type sliceResp struct {
	Attr      float64 `json:"attr"`
	Rank      float64 `json:"rank"`
	SliceIx   int     `json:"slice"`
	Low       float64 `json:"low"`
	High      float64 `json:"high"`
	Node      uint64  `json:"node"`
	Staleness struct {
		Bound       float64 `json:"bound"`
		RankCI      float64 `json:"rankCI"`
		ResidualSDM float64 `json:"residualSDM"`
		Ticks       int     `json:"ticks"`
	} `json:"staleness"`
}

// topkResp mirrors the /topk JSON shape.
type topkResp struct {
	Frac          float64 `json:"frac"`
	AttrThreshold float64 `json:"attrThreshold"`
	SelfIncluded  bool    `json:"selfIncluded"`
	Members       []struct {
		ID   uint64  `json:"id"`
		Attr float64 `json:"attr"`
		Rank float64 `json:"rank"`
	} `json:"members"`
}

// startServedCluster composes a served cluster explicitly: cluster,
// querier, server, then Start in that order. The cleanup drains the
// server before it stops the cluster.
func startServedCluster(t *testing.T, n, slices, viewSize int, seed int64) (*slicing.Cluster, string, slicing.Partition) {
	t.Helper()
	part, err := slicing.EqualSlices(slices)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := slicing.NewCluster(slicing.ClusterConfig{
		N: n, Partition: part, ViewSize: viewSize,
		Protocol:   slicing.Ranking,
		AttrDist:   slicing.UniformDist{Lo: 0, Hi: 100},
		Seed:       seed,
		Clock:      slicing.NewVirtualClock(),
		Period:     servePeriod,
		JitterFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := slicing.NewClusterQuerier(cluster, slicing.RankingServingCalibration)
	if err != nil {
		cluster.Stop()
		t.Fatal(err)
	}
	srv := slicing.NewQueryServer(q, slicing.ServeOptions{Addr: "127.0.0.1:0"})
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		cluster.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		cluster.Stop()
	})
	if srv.Addr() == "" {
		t.Fatal("started query server reports an empty Addr")
	}
	return cluster, srv.Addr(), part
}

func getDecoded(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestServedClusterEndToEnd(t *testing.T) {
	const n, slices = 64, 4
	cluster, addr, part := startServedCluster(t, n, slices, 16, 11)

	// Drive the cluster in virtual time until the protocol itself is
	// reasonably converged; the cap bounds the test, not wall time.
	for cycles := 0; cluster.MisassignedFraction() > 0.2; cycles++ {
		if cycles > 800 {
			t.Fatalf("cluster stuck at %.2f misassigned", cluster.MisassignedFraction())
		}
		if err := cluster.Advance(servePeriod); err != nil {
			t.Fatal(err)
		}
	}
	// Then keep gossiping a while longer: the slice assignment stabilizes
	// before the rank estimates themselves tighten, and the query plane
	// interpolates from the raw ranks.
	for i := 0; i < 200; i++ {
		if err := cluster.Advance(servePeriod); err != nil {
			t.Fatal(err)
		}
	}
	base := "http://" + addr

	// The served answers are judged by the same per-node slice-distance
	// the SDM sums: the query plane interpolates from single-node state,
	// so it may add at most a modest overhead on top of the protocol's
	// own residual disorder.
	var members []slicing.Member
	var states []slicing.NodeState
	for _, node := range cluster.Nodes() {
		st := node.Status()
		members = append(members, slicing.Member{ID: st.ID, Attr: st.Attr})
		states = append(states, slicing.NodeState{
			Member:     slicing.Member{ID: st.ID, Attr: st.Attr},
			R:          st.R,
			SliceIndex: st.SliceIx,
		})
	}
	protocolMeanDist := slicing.SDM(states, part) / float64(n)
	ranks := slicing.Ranks(members)

	var servedDistSum float64
	for _, m := range members {
		var ans sliceResp
		getDecoded(t, fmt.Sprintf("%s/slice?attr=%v", base, m.Attr), &ans)
		if ans.SliceIx < 0 || ans.SliceIx >= slices {
			t.Fatalf("attr %v: slice %d out of range", m.Attr, ans.SliceIx)
		}
		if ans.Rank < 0 || ans.Rank > 1 {
			t.Errorf("attr %v: rank %v outside [0,1]", m.Attr, ans.Rank)
		}
		if ans.Staleness.Bound <= 0 || ans.Staleness.Bound > 1 {
			t.Errorf("attr %v: staleness bound %v outside (0,1]", m.Attr, ans.Staleness.Bound)
		}
		trueIx := part.Index(float64(ranks[m.ID]) / float64(n))
		servedDistSum += part.SliceDistance(trueIx, ans.SliceIx)
	}
	servedMeanDist := servedDistSum / float64(n)
	tolerance := protocolMeanDist + 0.5
	if servedMeanDist > tolerance {
		t.Errorf("served answers: mean slice distance %.3f exceeds SDM-derived tolerance %.3f (protocol residual %.3f)",
			servedMeanDist, tolerance, protocolMeanDist)
	}

	// Top-25%: the attribute threshold must approximate the true 0.75
	// quantile of the uniform [0,100) population. Each query is answered
	// from one round-robin node's local anchors, so individual answers
	// are noisy; the median across a sample of nodes must land near 75.
	var thresholds []float64
	for i := 0; i < 17; i++ {
		var top topkResp
		getDecoded(t, base+"/topk?frac=0.25", &top)
		if top.Frac != 0.25 {
			t.Fatalf("topk frac echoed %v, want 0.25", top.Frac)
		}
		thresholds = append(thresholds, top.AttrThreshold)
		for _, mem := range top.Members {
			if mem.Rank < 0.5 {
				t.Errorf("topk member %d has rank %v, far below the 0.75 cut", mem.ID, mem.Rank)
			}
		}
	}
	sort.Float64s(thresholds)
	if med := thresholds[len(thresholds)/2]; med < 55 || med > 92 {
		t.Errorf("median top-25%% attr threshold %v implausibly far from 75 (all: %v)", med, thresholds)
	}

	// Health endpoint answers while serving.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d, want 200", resp.StatusCode)
	}
}

func TestServedClusterWatchStreamsCrossings(t *testing.T) {
	// A freshly started cluster is maximally disordered, so driving it
	// forward forces slice-boundary crossings; the SSE stream must carry
	// them. The stream is opened before any cycle runs.
	cluster, addr, _ := startServedCluster(t, 32, 4, 8, 7)

	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("watch content-type %q, want text/event-stream", ct)
	}

	gotEvent := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			line := scanner.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				select {
				case gotEvent <- data:
				default:
				}
				return
			}
		}
	}()

	// 200 cycles of a fresh cluster force plenty of crossings; then block
	// until one has propagated through the SSE pipeline. The wall-clock
	// timer is a failure backstop, not a pacing sleep — virtual time did
	// all the driving above.
	for cycle := 0; cycle < 200; cycle++ {
		if err := cluster.Advance(servePeriod); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case data := <-gotEvent:
		var ev struct {
			Node uint64 `json:"node"`
			Old  int    `json:"old"`
			New  int    `json:"new"`
			Seq  uint64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("boundary event payload %q: %v", data, err)
		}
		if ev.Old == ev.New {
			t.Errorf("boundary event %+v is not a crossing", ev)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no boundary event observed on the SSE stream")
	}
}

// loopbackTransport is a TCP transport on an ephemeral loopback port,
// closed when the test ends.
func loopbackTransport(t *testing.T) *slicing.TCPTransport {
	t.Helper()
	tr, err := slicing.NewTCPTransport(slicing.TCPTransportOptions{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestServedNodeServeLifecycle(t *testing.T) {
	part, err := slicing.EqualSlices(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := loopbackTransport(t)
	node, err := slicing.NewNode(slicing.NodeConfig{
		ID: 1, Attr: 50, Partition: part, ViewSize: 4,
		Protocol:   slicing.Ranking,
		Estimator:  slicing.NewCounterEstimator(),
		Transport:  tr,
		Seed:       3,
		Period:     50 * time.Millisecond,
		JitterFrac: slicing.JitterNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := slicing.NewQueryServer(slicing.NewNodeQuerier(node, slicing.RankingServingCalibration),
		slicing.ServeOptions{Addr: "127.0.0.1:0"})
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		node.Stop()
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("Addr empty after the query server started")
	}

	var snap struct {
		Node uint64  `json:"node"`
		Attr float64 `json:"attr"`
	}
	getDecoded(t, "http://"+addr+"/snapshot", &snap)
	if snap.Node != 1 || snap.Attr != 50 {
		t.Errorf("snapshot reports node %d attr %v, want node 1 attr 50", snap.Node, snap.Attr)
	}

	// Departure order: the query plane drains, then gossip stops.
	err = srv.Shutdown(context.Background())
	node.Stop()
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("query plane still answering after Shutdown")
	}
}
