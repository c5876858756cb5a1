package slicing_test

// CI's observability smoke: a served, instrumented cluster is composed
// through the public facade alone (NewCluster, NewClusterQuerier,
// NewQueryServer), driven in virtual time, and its diagnostics are
// scraped over real HTTP — /metrics must parse as valid Prometheus text
// format and carry every golden live-plane metric family, and
// /debug/trace must dump recorded protocol events.
// The ci.yml "observability smoke" step runs exactly this test.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	"github.com/gossipkit/slicing"
	"github.com/gossipkit/slicing/internal/telemetry"
)

func TestMetricsEndToEnd(t *testing.T) {
	part, err := slicing.EqualSlices(4)
	if err != nil {
		t.Fatal(err)
	}
	clock := slicing.NewVirtualClock()
	reg := slicing.NewTelemetry()
	ring := slicing.NewTraceRing(0)
	cluster, err := slicing.NewCluster(slicing.ClusterConfig{
		N: 32, Partition: part, ViewSize: 8,
		Protocol:  slicing.Ranking,
		AttrDist:  slicing.UniformDist{Lo: 0, Hi: 100},
		Seed:      3,
		Clock:     clock,
		Period:    servePeriod,
		Telemetry: reg,
		Trace:     ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := slicing.NewClusterQuerier(cluster, slicing.RankingServingCalibration)
	if err != nil {
		cluster.Stop()
		t.Fatal(err)
	}
	srv := slicing.NewQueryServer(q, slicing.ServeOptions{
		Addr: "127.0.0.1:0", Telemetry: reg, Trace: ring, Debug: true,
	})
	defer func() {
		_ = srv.Shutdown(context.Background())
		cluster.Stop()
	}()
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Advance(10 * servePeriod); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// /metrics: valid exposition carrying every golden live-plane family.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	families, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text format: %v", err)
	}
	golden, err := os.ReadFile("testdata/metric_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range strings.Fields(string(golden)) {
		// Sim gauges only register when a simulation attaches, and
		// slicing_node_* families only on standalone nodes (a cluster
		// exposes scheduler aggregates instead); the runtime and serving
		// families must all be live in this scrape.
		if strings.HasPrefix(name, "slicing_sim_") || strings.HasPrefix(name, "slicing_node_") {
			continue
		}
		if _, ok := families[name]; !ok {
			t.Errorf("golden metric %s missing from the live /metrics scrape", name)
		}
	}

	// /debug/trace: protocol events were recorded and dump as JSON.
	resp2, err := http.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: status %d", resp2.StatusCode)
	}
	var dump telemetry.TraceDump
	if err := json.NewDecoder(resp2.Body).Decode(&dump); err != nil {
		t.Fatalf("GET /debug/trace: decode: %v", err)
	}
	if dump.Total == 0 || len(dump.Events) == 0 {
		t.Errorf("trace dump is empty after 10 gossip periods: total=%d events=%d", dump.Total, len(dump.Events))
	}

	// /debug/pprof mounted via ServeOptions.Debug.
	resp3, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline: status %d", resp3.StatusCode)
	}
}
