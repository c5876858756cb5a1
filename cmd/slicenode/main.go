// Command slicenode runs one live slicing node over TCP. A small
// cluster on one machine:
//
//	slicenode -id 1 -listen 127.0.0.1:7001 -attr 120 -peers "2=127.0.0.1:7002,3=127.0.0.1:7003" -slices 4
//	slicenode -id 2 -listen 127.0.0.1:7002 -attr 45  -peers "1=127.0.0.1:7001,3=127.0.0.1:7003" -slices 4
//	slicenode -id 3 -listen 127.0.0.1:7003 -attr 300 -peers "1=127.0.0.1:7001,2=127.0.0.1:7002" -slices 4
//
// Each node prints its current slice estimate once per report interval
// until interrupted. The -protocol flag selects ranking (default) or
// ordering (mod-JK).
//
// With -serve the node also answers slice queries over HTTP from its
// local estimate (GET /slice?attr=, /topk?frac=, /snapshot, /healthz,
// and the /watch SSE stream of boundary crossings), plus the
// observability plane: GET /metrics (Prometheus text format),
// /debug/trace (the protocol decision trace as JSON) and
// /debug/pprof/*:
//
//	slicenode -id 1 ... -serve :8080
//
// Without -serve, -debug-addr binds just the diagnostics endpoints on
// a separate listener. Diagnostics log through log/slog; -log-level
// and -log-format (text|json) control them.
//
// On SIGTERM/SIGINT the query plane drains first — in-flight requests
// finish, streams close — and only then does gossip stop: the node's
// departure is an ordinary churn event to both its clients and its
// peers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	slicing "github.com/gossipkit/slicing"
	"github.com/gossipkit/slicing/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slicenode:", err)
		os.Exit(1)
	}
}

// settings is the resolved flag set of one node run.
type settings struct {
	id        uint64
	listen    string
	attr      float64
	peers     map[slicing.ID]string
	slices    int
	protocol  string
	period    time.Duration
	view      int
	window    int
	report    time.Duration
	seed      int64
	serve     string
	debugAddr string
	logLevel  string
	logFormat string
}

// parseArgs resolves the flags into settings.
func parseArgs(args []string) (*settings, error) {
	fs := flag.NewFlagSet("slicenode", flag.ContinueOnError)
	var (
		id        = fs.Uint64("id", 0, "node identifier (required, unique)")
		listen    = fs.String("listen", "127.0.0.1:0", "listen address")
		attr      = fs.Float64("attr", 0, "attribute value (capability metric)")
		peersArg  = fs.String("peers", "", "comma-separated id=host:port peer book")
		slices    = fs.Int("slices", 10, "number of equal slices")
		protoArg  = fs.String("protocol", "ranking", "protocol: ranking|ordering")
		period    = fs.Duration("period", slicing.DefaultPeriod, "gossip period")
		view      = fs.Int("view", 20, "view size")
		window    = fs.Int("window", 0, "sliding-window size (0 = unbounded counter)")
		report    = fs.Duration("report", 2*time.Second, "status report interval")
		seed      = fs.Int64("seed", 0, "rng seed (0 = derive from id)")
		serve     = fs.String("serve", "", "answer slice queries over HTTP on this address (empty = off)")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/trace and /debug/pprof on this address (with -serve they mount on the serve mux instead)")
		logLevel  = fs.String("log-level", "", telemetry.LogLevelUsage)
		logFormat = fs.String("log-format", "", telemetry.LogFormatUsage)
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	peers, err := parsePeers(*peersArg)
	if err != nil {
		return nil, err
	}
	if *id == 0 {
		return nil, fmt.Errorf("missing -id")
	}
	if *seed == 0 {
		*seed = int64(*id)
	}
	return &settings{
		id: *id, listen: *listen, attr: *attr, peers: peers,
		slices: *slices, protocol: *protoArg, period: *period,
		view: *view, window: *window, report: *report,
		seed: *seed, serve: *serve, debugAddr: *debugAddr,
		logLevel: *logLevel, logFormat: *logFormat,
	}, nil
}

func run(args []string) error {
	set, err := parseArgs(args)
	if err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(os.Stderr, set.logLevel, set.logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	part, err := slicing.EqualSlices(set.slices)
	if err != nil {
		return err
	}

	book := make(map[slicing.ID]string, len(set.peers))
	bootstrap := make([]slicing.ViewEntry, 0, len(set.peers))
	for pid, addr := range set.peers {
		book[pid] = addr
		// Bootstrap entries are identity-only placeholders: gossip
		// contacts whose attribute and coordinate arrive with the first
		// exchange. Protocols skip them when sampling.
		bootstrap = append(bootstrap, slicing.ViewEntry{ID: pid, Age: slicing.AgePlaceholder})
	}
	tr, err := slicing.NewTCPTransport(slicing.TCPTransportOptions{
		ListenAddr: set.listen,
		Book:       book,
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	// The node always carries its observability plane: a metrics
	// registry and a protocol trace ring. They cost nothing until
	// scraped, and -serve / -debug-addr expose them over HTTP.
	reg := slicing.NewTelemetry()
	ring := slicing.NewTraceRing(0)
	cfg := slicing.NodeConfig{
		ID:         slicing.ID(set.id),
		Attr:       slicing.Attr(set.attr),
		Partition:  part,
		ViewSize:   set.view,
		Seed:       set.seed,
		Bootstrap:  bootstrap,
		Transport:  tr,
		Period:     set.period,
		JitterFrac: slicing.DefaultJitterFrac,
		Telemetry:  reg,
		Trace:      ring,
	}
	cal := slicing.RankingServingCalibration
	switch set.protocol {
	case "ranking":
		cfg.Protocol = slicing.Ranking
		if set.window > 0 {
			est, err := slicing.NewWindowEstimator(set.window)
			if err != nil {
				return err
			}
			cfg.Estimator = est
		} else {
			cfg.Estimator = slicing.NewCounterEstimator()
		}
	case "ordering":
		cfg.Protocol = slicing.Ordering
		cal = slicing.OrderingServingCalibration
	default:
		return fmt.Errorf("unknown protocol %q", set.protocol)
	}

	node, err := slicing.NewNode(cfg)
	if err != nil {
		return err
	}
	if err := node.Start(); err != nil {
		return err
	}
	var srv *slicing.QueryServer
	if set.serve != "" {
		srv = slicing.NewQueryServer(slicing.NewNodeQuerier(node, cal), slicing.ServeOptions{
			Addr: set.serve, Telemetry: reg, Trace: ring, Debug: true,
		})
		if err := srv.Start(); err != nil {
			node.Stop()
			return err
		}
	}
	// Departure order matters: drain the query plane (finish in-flight
	// answers, end streams), then stop gossiping — to peers this is an
	// ordinary crash-style churn event.
	shutdown := func() error {
		var err error
		if srv != nil {
			err = srv.Shutdown(context.Background())
		}
		node.Stop()
		return err
	}
	logger.Info("node started",
		"id", set.id, "addr", tr.Addr(), "attr", set.attr,
		"protocol", set.protocol, "slices", set.slices)
	if srv != nil {
		logger.Info("serving slice queries", "url", "http://"+srv.Addr(),
			"endpoints", "/slice /topk /snapshot /watch /healthz /metrics /debug/trace /debug/pprof/")
	}
	if set.debugAddr != "" {
		dbg, err := startDebugServer(set.debugAddr, reg, ring)
		if err != nil {
			_ = shutdown() // the listen error is the one to report
			return err
		}
		defer dbg.Close()
		logger.Info("serving diagnostics", "url", "http://"+dbg.Addr().String(),
			"endpoints", "/metrics /debug/trace /debug/pprof/")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(set.report)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			logger.Info("draining and shutting down")
			return shutdown()
		case <-ticker.C:
			st := node.Status()
			logger.Info("status",
				"rank", fmt.Sprintf("%.4f", st.R), "slice", st.SliceIx,
				"range", fmt.Sprintf("%v", st.Slice), "view", st.ViewLen, "samples", st.Samples)
		}
	}
}

// startDebugServer binds the standalone diagnostics listener for the
// non-serving case: metrics scrape, trace dump and pprof, nothing else.
func startDebugServer(addr string, reg *slicing.Telemetry, ring *slicing.TraceRing) (net.Listener, error) {
	mux := http.NewServeMux()
	telemetry.MountDiagnostics(mux, reg, ring, true)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln, nil
}

func parsePeers(arg string) (map[slicing.ID]string, error) {
	peers := make(map[slicing.ID]string)
	if arg == "" {
		return peers, nil
	}
	for _, part := range strings.Split(arg, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q, want id=host:port", part)
		}
		pid, err := strconv.ParseUint(kv[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", kv[0], err)
		}
		peers[slicing.ID(pid)] = kv[1]
	}
	return peers, nil
}
