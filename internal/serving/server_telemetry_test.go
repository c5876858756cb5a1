package serving

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/gossipkit/slicing/internal/telemetry"
)

// laggyQuerier hands the watch handler a channel the test controls, so
// Seq gaps (= dropped events) can be injected deliberately.
type laggyQuerier struct {
	ch chan BoundaryEvent
}

func (q *laggyQuerier) SliceOf(attr float64) (SliceAnswer, error) {
	return SliceAnswer{}, ErrNoEvidence
}
func (q *laggyQuerier) TopK(frac float64) (TopKAnswer, error) { return TopKAnswer{}, ErrNoEvidence }
func (q *laggyQuerier) Snapshot() (Snapshot, error)           { return Snapshot{}, ErrNoEvidence }
func (q *laggyQuerier) WatchBoundary() (<-chan BoundaryEvent, func(), error) {
	return q.ch, func() {}, nil
}

func TestServerMetricsEndpoint(t *testing.T) {
	e := testEngine(t, 400, 60)
	q := NewSimQuerier(e, Calibration{})
	reg := telemetry.NewRegistry()
	ts := httptest.NewServer(NewServer(q, Options{Telemetry: reg}).Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/slice?attr=50")
		if err != nil {
			t.Fatalf("GET /slice: %v", err)
		}
		resp.Body.Close()
	}
	if resp, _ := http.Get(ts.URL + "/slice?attr=bogus"); resp != nil {
		resp.Body.Close() // 400 → error counter
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	types, err := telemetry.ParseExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics output is not valid exposition format: %v\n%s", err, body)
	}
	for name, kind := range map[string]string{
		metricRequests:     "counter",
		metricReqErrors:    "counter",
		metricReqLatency:   "histogram",
		metricSubscribers:  "gauge",
		metricStaleness:    "histogram",
		metricWatchDropped: "counter",
	} {
		if got := types[name]; got != kind {
			t.Errorf("metric %s: type %q, want %q", name, got, kind)
		}
	}
	text := string(body)
	if !strings.Contains(text, `slicing_serving_requests_total{endpoint="/slice"} 4`) {
		t.Errorf("requests counter for /slice not 4:\n%s", grepLines(text, metricRequests))
	}
	if !strings.Contains(text, `slicing_serving_request_errors_total{endpoint="/slice"} 1`) {
		t.Errorf("error counter for /slice not 1:\n%s", grepLines(text, metricReqErrors))
	}
	// Three successful answers observed their staleness bound.
	if !strings.Contains(text, "slicing_serving_staleness_bound_count 3") {
		t.Errorf("staleness histogram count not 3:\n%s", grepLines(text, metricStaleness))
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

func TestServerWatchEmitsLaggedEvent(t *testing.T) {
	q := &laggyQuerier{ch: make(chan BoundaryEvent, 8)}
	reg := telemetry.NewRegistry()
	srv := NewServer(q, Options{Telemetry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Seq 1, then a jump to Seq 5: four events were dropped upstream.
	q.ch <- BoundaryEvent{Node: 1, Old: 0, New: 1, Seq: 1}
	q.ch <- BoundaryEvent{Node: 2, Old: 1, New: 2, Seq: 5}

	resp, err := http.Get(ts.URL + "/watch")
	if err != nil {
		t.Fatalf("GET /watch: %v", err)
	}
	defer resp.Body.Close()

	type sseEvent struct{ name, data string }
	got := make(chan sseEvent, 8)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "" && ev.name != "":
				got <- ev
				ev = sseEvent{}
			}
		}
	}()

	want := []sseEvent{
		{"boundary", `"seq":1`},
		{"lagged", `{"missed":3}`},
		{"boundary", `"seq":5`},
	}
	for _, w := range want {
		select {
		case ev := <-got:
			if ev.name != w.name || !strings.Contains(ev.data, w.data) {
				t.Fatalf("event = %q %q, want %q containing %q", ev.name, ev.data, w.name, w.data)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q event", w.name)
		}
	}
	if got := srv.tel.watchDropped.Value(); got != 3 {
		t.Errorf("watch drop counter = %d, want 3", got)
	}
}

func TestServerHealthzBuildInfo(t *testing.T) {
	e := testEngine(t, 200, 40)
	q := NewSimQuerier(e, Calibration{})
	ts := httptest.NewServer(NewServer(q, Options{}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var body struct {
		OK            bool              `json:"ok"`
		Build         map[string]string `json:"build"`
		UptimeSeconds float64           `json:"uptimeSeconds"`
		GossipTicks   int               `json:"gossipTicks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if !body.OK {
		t.Error("healthz ok = false for a converged backend")
	}
	for _, key := range []string{"goVersion", "revision", "version"} {
		if body.Build[key] == "" {
			t.Errorf("healthz build info missing %q: %v", key, body.Build)
		}
	}
	if body.UptimeSeconds < 0 {
		t.Errorf("uptimeSeconds = %v, want >= 0", body.UptimeSeconds)
	}
	if body.GossipTicks != e.Cycle() {
		t.Errorf("gossipTicks = %d, want engine cycle %d", body.GossipTicks, e.Cycle())
	}
}

func TestServerDebugEndpoints(t *testing.T) {
	e := testEngine(t, 200, 40)
	q := NewSimQuerier(e, Calibration{})
	ring := telemetry.NewTraceRing(64)
	ring.Record(telemetry.TraceEvent{Kind: telemetry.TraceSwapApplied, Node: 7, Peer: 9})
	ts := httptest.NewServer(NewServer(q, Options{Trace: ring, Debug: true}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatalf("GET /debug/trace: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var dump telemetry.TraceDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("trace dump is not JSON: %v\n%s", err, raw)
	}
	if dump.Total != 1 || len(dump.Events) != 1 || dump.Events[0].Node != 7 {
		t.Errorf("trace dump = %+v, want the one recorded event", dump)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET /debug/pprof/cmdline: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status = %d, want 200", resp.StatusCode)
	}

	// Without Debug/Trace options the debug plane must not exist.
	bare := httptest.NewServer(NewServer(q, Options{}).Handler())
	defer bare.Close()
	for _, path := range []string{"/metrics", "/debug/trace", "/debug/pprof/cmdline"} {
		resp, err := http.Get(bare.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("bare server %s status = %d, want 404", path, resp.StatusCode)
		}
	}
}
