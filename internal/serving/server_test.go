package serving

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/sim"
)

// testEngine builds a converged ranking simulation: N uniform nodes,
// 4 slices, enough cycles for the estimates to settle.
func testEngine(t testing.TB, n, cycles int) *sim.Engine {
	t.Helper()
	e, err := sim.New(sim.Config{
		N:        n,
		Slices:   4,
		ViewSize: 20,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 100},
		Seed:     42,
	})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	e.Run(cycles)
	return e
}

func TestSimQuerierAnswers(t *testing.T) {
	e := testEngine(t, 400, 60)
	q := NewSimQuerier(e, Calibration{})

	// Uniform attrs on [0,100): attr 10 → rank ≈ 0.1 → slice 0 of 4.
	ans, err := q.SliceOf(10)
	if err != nil {
		t.Fatalf("SliceOf: %v", err)
	}
	if ans.SliceIx != 0 {
		t.Errorf("SliceOf(10) slice = %d (rank %v), want 0", ans.SliceIx, ans.Rank)
	}
	ans, err = q.SliceOf(90)
	if err != nil {
		t.Fatalf("SliceOf: %v", err)
	}
	if ans.SliceIx != 3 {
		t.Errorf("SliceOf(90) slice = %d (rank %v), want 3", ans.SliceIx, ans.Rank)
	}
	if ans.Staleness.Bound <= 0 || ans.Staleness.Bound > 1 {
		t.Errorf("staleness bound = %v, want (0,1]", ans.Staleness.Bound)
	}
	if ans.Staleness.Ticks != e.Cycle() {
		t.Errorf("staleness ticks = %d, want engine cycle %d", ans.Staleness.Ticks, e.Cycle())
	}

	top, err := q.TopK(0.25)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	// The admission bar of the top quarter of a uniform [0,100)
	// population sits near 75.
	if top.AttrThreshold < 60 || top.AttrThreshold > 90 {
		t.Errorf("TopK(0.25) threshold = %v, want ≈75", top.AttrThreshold)
	}
	if len(top.Members) == 0 {
		t.Error("TopK returned no members from a 400-node population")
	}
	checkTopK(t, "sim", top)

	if _, err := q.SliceOf(nan()); err != ErrBadAttr {
		t.Errorf("SliceOf(NaN) err = %v, want ErrBadAttr", err)
	}
	if _, err := q.TopK(0); err != ErrBadFrac {
		t.Errorf("TopK(0) err = %v, want ErrBadFrac", err)
	}
	if _, err := q.TopK(1.5); err != ErrBadFrac {
		t.Errorf("TopK(1.5) err = %v, want ErrBadFrac", err)
	}
}

func nan() float64 { var z float64; return z / z }

func TestSimQuerierWatchSeesCrossings(t *testing.T) {
	e := testEngine(t, 100, 0) // cycle 0: estimates raw, crossings ahead
	q := NewSimQuerier(e, Calibration{})
	events, cancel, err := q.WatchBoundary()
	if err != nil {
		t.Fatalf("WatchBoundary: %v", err)
	}
	defer cancel()
	e.Run(30)
	q.Refresh(e)
	select {
	case ev := <-events:
		if ev.Old == ev.New {
			t.Errorf("crossing with old == new: %+v", ev)
		}
		if ev.Seq == 0 {
			t.Error("Seq must start at 1")
		}
	default:
		t.Fatal("30 cycles of convergence produced no boundary crossing")
	}
	cancel()
	drain(events)
	e.Run(30)
	q.Refresh(e)
	if len(events) != 0 {
		t.Error("cancelled watcher still receives events")
	}
}

func drain(ch <-chan BoundaryEvent) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	e := testEngine(t, 400, 60)
	q := NewSimQuerier(e, Calibration{})
	ts := httptest.NewServer(NewServer(q, Options{}).Handler())
	defer ts.Close()

	var ans SliceAnswer
	getJSON(t, ts.URL+"/slice?attr=90", http.StatusOK, &ans)
	if ans.SliceIx != 3 {
		t.Errorf("/slice?attr=90 slice = %d, want 3", ans.SliceIx)
	}
	if ans.Staleness.Bound <= 0 {
		t.Error("/slice answer carries no staleness bound")
	}

	var top TopKAnswer
	getJSON(t, ts.URL+"/topk?frac=0.25", http.StatusOK, &top)
	if top.Frac != 0.25 || len(top.Members) == 0 {
		t.Errorf("/topk answer = %+v", top)
	}

	var snap Snapshot
	getJSON(t, ts.URL+"/snapshot", http.StatusOK, &snap)
	if snap.Node == 0 {
		t.Error("/snapshot has no answering node")
	}

	var health map[string]any
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health["ok"] != true {
		t.Errorf("/healthz = %v", health)
	}

	// Error mapping.
	var e1 map[string]string
	getJSON(t, ts.URL+"/slice", http.StatusBadRequest, &e1)
	getJSON(t, ts.URL+"/slice?attr=bogus", http.StatusBadRequest, &e1)
	getJSON(t, ts.URL+"/topk?frac=2", http.StatusBadRequest, &e1)
	if e1["error"] == "" {
		t.Error("error responses must carry an error message")
	}
}

func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestServerWatchStreamsSSE(t *testing.T) {
	e := testEngine(t, 100, 0)
	q := NewSimQuerier(e, Calibration{})
	ts := httptest.NewServer(NewServer(q, Options{}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/watch")
	if err != nil {
		t.Fatalf("GET /watch: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// Converge while the stream is open; Refresh pushes the crossings.
	e.Run(30)
	q.Refresh(e)

	sc := bufio.NewScanner(resp.Body)
	var event, data string
	deadline := time.Now().Add(5 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			goto parsed
		}
		if time.Now().After(deadline) {
			t.Fatal("no SSE event within deadline")
		}
	}
	t.Fatalf("stream ended without an event: %v", sc.Err())
parsed:
	if event != "boundary" {
		t.Errorf("event = %q, want boundary", event)
	}
	var ev BoundaryEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("bad SSE payload %q: %v", data, err)
	}
	if ev.Seq == 0 || ev.Old == ev.New {
		t.Errorf("bad crossing: %+v", ev)
	}
}

func TestServerStartShutdown(t *testing.T) {
	e := testEngine(t, 100, 30)
	q := NewSimQuerier(e, Calibration{})
	s := NewServer(q, Options{Addr: "127.0.0.1:0", DrainTimeout: 2 * time.Second})
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var snap Snapshot
	getJSON(t, fmt.Sprintf("http://%s/snapshot", s.Addr()), http.StatusOK, &snap)

	// An open SSE stream must not stall the drain past DrainTimeout.
	resp, err := http.Get(fmt.Sprintf("http://%s/watch", s.Addr()))
	if err != nil {
		t.Fatalf("GET /watch: %v", err)
	}
	defer resp.Body.Close()

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("Shutdown did not complete within twice the drain timeout")
	}
}
