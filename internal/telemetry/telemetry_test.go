package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	// Re-registration returns the same instrument.
	if c2 := r.Counter("test_ops_total", "ops"); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Nil instruments are safe no-ops so call sites skip telemetry guards.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-5.605) > 1e-9 {
		t.Fatalf("sum = %v, want 5.605", got)
	}
	cum := h.snapshot()
	want := []uint64{1, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (cum=%v)", i, cum[i], w, cum)
		}
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering test_x as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("test_x", "x")
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "requests", L("endpoint", "/slice")).Add(7)
	r.Counter("app_requests_total", "requests", L("endpoint", "/topk")).Add(2)
	r.Gauge("app_subscribers", "subs").Set(3)
	r.GaugeFunc("app_queue_depth", "depth", func() float64 { return 42 }, L("shard", "0"))
	r.CounterFunc("app_delivered_total", "delivered", func() uint64 { return 11 })
	h := r.Histogram("app_latency_seconds", "latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		`app_requests_total{endpoint="/slice"} 7`,
		`app_requests_total{endpoint="/topk"} 2`,
		`app_subscribers 3`,
		`app_queue_depth{shard="0"} 42`,
		`app_delivered_total 11`,
		`app_latency_seconds_bucket{le="0.01"} 1`,
		`app_latency_seconds_bucket{le="+Inf"} 2`,
		`app_latency_seconds_sum 0.505`,
		`app_latency_seconds_count 2`,
		"# TYPE app_latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition rejected our own output: %v", err)
	}
	wantFams := map[string]string{
		"app_requests_total":  "counter",
		"app_subscribers":     "gauge",
		"app_queue_depth":     "gauge",
		"app_delivered_total": "counter",
		"app_latency_seconds": "histogram",
	}
	for name, kind := range wantFams {
		if fams[name] != kind {
			t.Errorf("family %s = %q, want %q", name, fams[name], kind)
		}
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_type_decl 3\n",
		"# TYPE x counter\nx{unterminated=\"v 3\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\n# TYPE x gauge\n",
	}
	for _, text := range bad {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("ParseExposition accepted %q", text)
		}
	}
}

func TestGaugeFuncRebind(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("app_v", "v", func() float64 { return 1 })
	r.GaugeFunc("app_v", "v", func() float64 { return 2 })
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition rejected our own output: %v", err)
	}
	if fams["app_v"] != "gauge" {
		t.Fatalf("family app_v = %q, want gauge:\n%s", fams["app_v"], text)
	}
	if !strings.Contains(text, "\napp_v 2\n") || strings.Contains(text, "\napp_v 1\n") {
		t.Fatalf("rebound gauge func does not read 2:\n%s", text)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_n_total", "n")
	h := r.Histogram("app_d", "d", LatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Gauge("b_metric", "b")
	r.Counter("a_metric_total", "a")
	got := r.Names()
	if len(got) != 2 || got[0] != "a_metric_total" || got[1] != "b_metric" {
		t.Fatalf("Names() = %v", got)
	}
}
