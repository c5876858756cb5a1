package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"github.com/gossipkit/slicing/internal/telemetry"
)

// Options configures a Server. The zero value is usable: an
// OS-assigned port and DefaultDrainTimeout.
type Options struct {
	// Addr is the listen address (":8080"); empty means ":0" (an
	// OS-assigned port, reported by Server.Addr).
	Addr string
	// DrainTimeout bounds graceful shutdown: how long Shutdown waits for
	// in-flight requests and SSE streams before closing connections. 0
	// means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Telemetry, when non-nil, instruments every endpoint (request and
	// error counters, latency histograms, the reported staleness-bound
	// distribution, SSE subscriber gauge, watch drops) and mounts the
	// registry's Prometheus handler at GET /metrics.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, is dumped as JSON at GET /debug/trace.
	Trace *telemetry.TraceRing
	// Debug mounts the pprof handlers under GET /debug/pprof/.
	Debug bool
}

// DefaultDrainTimeout bounds graceful shutdown when Options.DrainTimeout
// is zero.
const DefaultDrainTimeout = 5 * time.Second

// Serving-plane metric names.
const (
	metricRequests     = "slicing_serving_requests_total"
	metricReqErrors    = "slicing_serving_request_errors_total"
	metricReqLatency   = "slicing_serving_request_latency_seconds"
	metricSubscribers  = "slicing_serving_sse_subscribers"
	metricStaleness    = "slicing_serving_staleness_bound"
	metricWatchDropped = "slicing_serving_watch_dropped_total"
)

// endpointTel is one endpoint's instrument set.
type endpointTel struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
}

// serveTel is the server's instrument set; nil when Options.Telemetry
// was nil, which keeps the request path instrumentation-free.
type serveTel struct {
	endpoints    map[string]*endpointTel
	subscribers  *telemetry.Gauge
	staleness    *telemetry.Histogram
	watchDropped *telemetry.Counter
}

func newServeTel(reg *telemetry.Registry, endpoints []string) *serveTel {
	t := &serveTel{
		endpoints: make(map[string]*endpointTel, len(endpoints)),
		subscribers: reg.Gauge(metricSubscribers,
			"Active SSE /watch subscribers."),
		staleness: reg.Histogram(metricStaleness,
			"Staleness bounds reported on successful answers (normalized rank error).",
			telemetry.LinearBuckets(0.01, 0.01, 20)),
		watchDropped: reg.Counter(metricWatchDropped,
			"Boundary events dropped on full watch buffers (summed over subscribers)."),
	}
	for _, ep := range endpoints {
		t.endpoints[ep] = &endpointTel{
			requests: reg.Counter(metricRequests,
				"HTTP requests served, by endpoint.", telemetry.L("endpoint", ep)),
			errors: reg.Counter(metricReqErrors,
				"HTTP responses with status >= 400, by endpoint.", telemetry.L("endpoint", ep)),
			latency: reg.Histogram(metricReqLatency,
				"Request handling latency, by endpoint.", telemetry.LatencyBuckets,
				telemetry.L("endpoint", ep)),
		}
	}
	return t
}

// Server exposes a SliceQuerier over HTTP/JSON:
//
//	GET /slice?attr=X   → SliceAnswer   (which slice is attribute X in?)
//	GET /topk?frac=F    → TopKAnswer    (who is in the top F fraction?)
//	GET /snapshot       → Snapshot      (the answering node's own state)
//	GET /watch          → SSE stream of BoundaryEvent crossings
//	GET /healthz        → {"ok":true,...} once the backend holds evidence
//
// With Options.Telemetry/Trace/Debug set it additionally serves the
// observability plane:
//
//	GET /metrics        → Prometheus text-format metrics
//	GET /debug/trace    → protocol trace ring as JSON
//	GET /debug/pprof/*  → the standard pprof handlers
//
// Every answer carries its Staleness block; errors are JSON
// {"error":"..."} with 400 for bad parameters and 503 while the backend
// has no evidence yet. The server is engine-agnostic: mount any
// SliceQuerier (live nodes or simulator).
type Server struct {
	q        SliceQuerier
	opts     Options
	tel      *serveTel
	srv      *http.Server
	ln       net.Listener
	start    time.Time
	draining chan struct{} // closed when Shutdown begins; ends SSE streams
}

// NewServer builds a server for q. Call Start to listen, or mount
// Handler on infrastructure of your own.
func NewServer(q SliceQuerier, opts Options) *Server {
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = DefaultDrainTimeout
	}
	s := &Server{q: q, opts: opts, start: time.Now(), draining: make(chan struct{})}
	if opts.Telemetry != nil {
		s.tel = newServeTel(opts.Telemetry, []string{"/slice", "/topk", "/snapshot", "/watch", "/healthz"})
	}
	s.srv = &http.Server{Handler: s.Handler()}
	// Shutdown waits for in-flight requests; an SSE stream never ends on
	// its own, so it must observe the drain and return.
	s.srv.RegisterOnShutdown(func() { close(s.draining) })
	return s
}

// Handler returns the route table as a plain http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /slice", s.instrument("/slice", s.handleSlice))
	mux.HandleFunc("GET /topk", s.instrument("/topk", s.handleTopK))
	mux.HandleFunc("GET /snapshot", s.instrument("/snapshot", s.handleSnapshot))
	mux.HandleFunc("GET /watch", s.instrument("/watch", s.handleWatch))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	telemetry.MountDiagnostics(mux, s.opts.Telemetry, s.opts.Trace, s.opts.Debug)
	return mux
}

// statusWriter records the response status for the error counters. It
// forwards Flush so the SSE handler streams through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps an endpoint handler with the request/error/latency
// instruments. Without a registry it returns the handler untouched —
// the uninstrumented server stays exactly as fast as before.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if s.tel == nil {
		return h
	}
	ep := s.tel.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h(sw, r)
		ep.latency.Observe(time.Since(begin).Seconds())
		ep.requests.Inc()
		if sw.status >= 400 {
			ep.errors.Inc()
		}
	}
}

// observeStaleness feeds the reported-bound distribution.
func (s *Server) observeStaleness(st Staleness) {
	if s.tel != nil {
		s.tel.staleness.Observe(st.Bound)
	}
}

// Start binds the listener and serves in a background goroutine. It
// returns once the port is bound, so Addr is valid immediately.
func (s *Server) Start() error {
	addr := s.opts.Addr
	if addr == "" {
		addr = ":0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Addr reports the bound listen address (useful with Addr ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server gracefully: it stops accepting
// connections, waits up to DrainTimeout for in-flight requests (SSE
// streams see their request context cancelled), then closes whatever
// remains. This is the serving half of a node's departure — the process
// stops answering before the churn layer announces the leave.
func (s *Server) Shutdown(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, s.opts.DrainTimeout)
	defer cancel()
	err := s.srv.Shutdown(dctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return s.srv.Close()
	}
	return err
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps query-plane errors to HTTP codes.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadAttr), errors.Is(err, ErrBadFrac):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNoEvidence), errors.Is(err, ErrNoNodes):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// floatParam parses a required float query parameter.
func floatParam(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("serving: missing query parameter %q", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("serving: bad %q: %w", name, err)
	}
	return v, nil
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	attr, err := floatParam(r, "attr")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	ans, err := s.q.SliceOf(attr)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.observeStaleness(ans.Staleness)
	writeJSON(w, http.StatusOK, ans)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	frac, err := floatParam(r, "frac")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	ans, err := s.q.TopK(frac)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.observeStaleness(ans.Staleness)
	writeJSON(w, http.StatusOK, ans)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap, err := s.q.Snapshot()
	if err != nil {
		writeErr(w, err)
		return
	}
	s.observeStaleness(snap.Staleness)
	writeJSON(w, http.StatusOK, snap)
}

// buildInfo resolves the binary's build identity once: the module
// version, the VCS revision (with a "+dirty" suffix for modified
// trees), and the Go toolchain. A fleet's versions are audited by
// curling /healthz on each member.
var buildInfo = sync.OnceValue(func() map[string]string {
	info := map[string]string{"goVersion": "unknown", "revision": "unknown", "version": "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info["goVersion"] = bi.GoVersion
	if bi.Main.Version != "" {
		info["version"] = bi.Main.Version
	}
	revision, modified := "", false
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			revision = kv.Value
		case "vcs.modified":
			modified = kv.Value == "true"
		}
	}
	if revision != "" {
		if modified {
			revision += "+dirty"
		}
		info["revision"] = revision
	}
	return info
})

// handleHealthz reports liveness plus the backend's convergence state:
// 200 with the snapshot's staleness once the node answers, 503 before.
// The payload carries the build identity (VCS revision via
// debug.ReadBuildInfo), the server's uptime, and the answering node's
// gossip tick count, so a fleet's versions and progress are auditable
// from the health endpoint alone.
//
// The "state" field summarizes the health detectors: "ok", "warming"
// (younger than the warmup grace; still 200 — a joining node is healthy,
// just young), or "degraded" (the starvation detector believes the node
// is partitioned away; 503, so load balancers stop routing queries to a
// node answering from a minority partition's frozen state).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	base := map[string]any{
		"build":         buildInfo(),
		"uptimeSeconds": time.Since(s.start).Seconds(),
	}
	snap, err := s.q.Snapshot()
	if err != nil {
		base["ok"] = false
		base["state"] = "unavailable"
		base["error"] = err.Error()
		writeJSON(w, http.StatusServiceUnavailable, base)
		return
	}
	base["node"] = snap.Node
	base["slice"] = snap.SliceIx
	base["staleness"] = snap.Staleness
	base["gossipTicks"] = snap.Staleness.Ticks
	switch {
	case snap.Staleness.Degraded:
		base["ok"] = false
		base["state"] = "degraded"
		writeJSON(w, http.StatusServiceUnavailable, base)
	case snap.Staleness.Warming:
		base["ok"] = true
		base["state"] = "warming"
		writeJSON(w, http.StatusOK, base)
	default:
		base["ok"] = true
		base["state"] = "ok"
		writeJSON(w, http.StatusOK, base)
	}
}

// handleWatch streams boundary crossings as Server-Sent Events: one
//
//	event: boundary
//	data: {"node":…,"old":…,"new":…,"seq":…}
//
// block per crossing. The stream ends when the client disconnects or
// the server drains. A subscriber that falls behind its buffer loses
// events — the queriers number events per subscription, so a Seq gap
// on receive reveals exactly how many — and the server turns each gap
// into an explicit
//
//	event: lagged
//	data: {"missed":…}
//
// block (and a drop-counter increment) so clients know to resnapshot
// instead of silently acting on stale state.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, map[string]string{"error": "serving: streaming unsupported"})
		return
	}
	events, cancel, err := s.q.WatchBoundary()
	if err != nil {
		writeErr(w, err)
		return
	}
	defer cancel()
	if s.tel != nil {
		s.tel.subscribers.Add(1)
		defer s.tel.subscribers.Add(-1)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var lastSeq uint64
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.draining:
			return
		case ev := <-events:
			if missed := ev.Seq - lastSeq - 1; missed > 0 {
				if s.tel != nil {
					s.tel.watchDropped.Add(missed)
				}
				if _, err := fmt.Fprintf(w, "event: lagged\ndata: {\"missed\":%d}\n\n", missed); err != nil {
					return
				}
			}
			lastSeq = ev.Seq
			payload, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: boundary\ndata: %s\n\n", payload); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
