package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// Handler returns the /metrics endpoint: the registry rendered in
// Prometheus text exposition format, version 0.0.4.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		_ = r.WriteProm(bw)
		_ = bw.Flush()
	})
}

// MountDiagnostics mounts the diagnostics routes on mux: GET /metrics
// for a non-nil reg, GET /debug/trace (the ring as JSON) for a non-nil
// ring, and the pprof handlers under GET /debug/pprof/ when withPprof
// is set. Every diagnostics listener builds its routes here.
func MountDiagnostics(mux *http.ServeMux, reg *Registry, ring *TraceRing, withPprof bool) {
	if reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	}
	if ring != nil {
		mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = ring.WriteJSON(w)
		})
	}
	if withPprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// WriteProm renders every family, sorted by name, to w. Callback
// metrics are sampled here; a scrape therefore observes engine state
// that costs nothing between scrapes.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, fam := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.kind); err != nil {
			return err
		}
		for _, ins := range fam.series {
			if err := writeSeries(w, fam, ins); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		fams = append(fams, fam)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func writeSeries(w io.Writer, fam *family, ins *instrument) error {
	switch fam.kind {
	case kindCounter:
		v := ins.counter.Value()
		if ins.counterFn != nil {
			v = ins.counterFn()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", fam.name, ins.labelSig, v)
		return err
	case kindGauge:
		v := ins.gauge.Value()
		if ins.gaugeFn != nil {
			v = ins.gaugeFn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, ins.labelSig, formatFloat(v))
		return err
	case kindHistogram:
		h := ins.hist
		cum := h.snapshot()
		for i, bound := range h.bounds {
			if err := writeBucket(w, fam.name, ins.labels, formatFloat(bound), cum[i]); err != nil {
				return err
			}
		}
		if err := writeBucket(w, fam.name, ins.labels, "+Inf", cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, ins.labelSig, formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.name, ins.labelSig, h.Count())
		return err
	}
	return nil
}

// writeBucket emits one cumulative histogram bucket with the le label
// merged into the series labels.
func writeBucket(w io.Writer, name string, labels []Label, le string, count uint64) error {
	sig := labelSig(append(append([]Label(nil), labels...), Label{Key: "le", Value: le}))
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, sig, count)
	return err
}

// formatFloat renders a float the way the text format expects: shortest
// round-trip form, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
