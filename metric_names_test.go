package slicing

// The golden metric-names test: the registry metric names exported at
// /metrics are an operational contract — dashboards, alerts and scrape
// configs reference them by name — so renames and removals are
// breaking. This test attaches one registry to every instrumented
// layer (live cluster, standalone node, query server, simulator),
// collects the registered family names, and compares them against
// testdata/metric_names.golden. The set is locked additive-only: new
// names are blessed with
//
//	go test -run TestMetricNames -update
//
// while a missing golden name always fails, bless or no bless.

import (
	"os"
	"slices"
	"strings"
	"testing"
)

const metricNamesGolden = "testdata/metric_names.golden"

func TestMetricNames(t *testing.T) {
	reg := NewTelemetry()
	ring := NewTraceRing(64)
	part, err := EqualSlices(4)
	if err != nil {
		t.Fatal(err)
	}

	// Live cluster: scheduler + churn metrics. Construction registers;
	// the cluster never starts.
	cluster, err := NewCluster(ClusterConfig{
		N: 4, Partition: part, ViewSize: 4,
		Protocol:  LiveRanking,
		AttrDist:  UniformDist{Lo: 0, Hi: 100},
		Seed:      1,
		Clock:     NewVirtualClock(),
		Period:    DefaultPeriod,
		Telemetry: reg,
		Trace:     ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	// Standalone node: per-node metrics.
	tr, err := NewTCPTransport(TCPTransportOptions{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	node, err := NewNode(NodeConfig{
		ID: 1, Attr: 10, Partition: part, ViewSize: 4,
		Protocol: LiveRanking, Estimator: NewCounterEstimator(),
		Transport: tr, Seed: 1, Period: DefaultPeriod, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = node

	// Query server: serving metrics.
	q, err := NewClusterQuerier(cluster, RankingServingCalibration)
	if err != nil {
		t.Fatal(err)
	}
	NewQueryServer(q, ServeOptions{Telemetry: reg})

	// Simulator: cycle gauges and phase timings.
	if _, err := NewSimulation(SimConfig{
		N: 16, Slices: 4, ViewSize: 4,
		Protocol:  Ranking,
		AttrDist:  UniformDist{Lo: 0, Hi: 100},
		Seed:      1,
		Telemetry: reg,
	}); err != nil {
		t.Fatal(err)
	}

	got := reg.Names()
	if *updateGolden {
		if err := os.WriteFile(metricNamesGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("blessed %s with %d metric names", metricNamesGolden, len(got))
		return
	}
	raw, err := os.ReadFile(metricNamesGolden)
	if err != nil {
		t.Fatalf("read %s: %v (bless with `go test -run TestMetricNames -update`)", metricNamesGolden, err)
	}
	want := strings.Fields(strings.TrimSpace(string(raw)))

	var missing, added []string
	for _, name := range want {
		if !slices.Contains(got, name) {
			missing = append(missing, name)
		}
	}
	for _, name := range got {
		if !slices.Contains(want, name) {
			added = append(added, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("BREAKING: metric names removed or renamed (dashboards and alerts reference these):\n  - %s",
			strings.Join(missing, "\n  - "))
	}
	if len(added) > 0 {
		t.Errorf("new metric names (additive — bless with `go test -run TestMetricNames -update`):\n  + %s",
			strings.Join(added, "\n  + "))
	}
}
