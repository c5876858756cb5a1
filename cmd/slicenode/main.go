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
//
// Instead of flags, -config loads a JSON file; explicitly set flags
// override config values. The file mirrors the flag set, with the
// gossip timing under a "live" block that reuses the scenario spec's
// field names:
//
//	{
//	  "id": 1, "listen": "127.0.0.1:7001", "attr": 120,
//	  "peers": {"2": "127.0.0.1:7002", "3": "127.0.0.1:7003"},
//	  "slices": 4, "protocol": "ranking", "view": 20,
//	  "serve": ":8080",
//	  "live": {"periodMS": 500, "jitterFrac": 0.1}
//	}
package main

import (
	"context"
	"encoding/json"
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

// fileConfig is the -config JSON shape: the flag set as a document,
// with gossip timing under a "live" block borrowing the scenario
// spec's field names (periodMS, jitterFrac).
type fileConfig struct {
	ID        uint64                    `json:"id"`
	Listen    string                    `json:"listen"`
	Attr      float64                   `json:"attr"`
	Peers     map[string]string         `json:"peers"`
	Slices    int                       `json:"slices"`
	Protocol  string                    `json:"protocol"`
	View      int                       `json:"view"`
	Window    int                       `json:"window"`
	Seed      int64                     `json:"seed"`
	Serve     string                    `json:"serve"`
	DebugAddr string                    `json:"debugAddr"`
	ReportMS  float64                   `json:"reportMS"`
	Live      *slicing.ScenarioLiveSpec `json:"live"`
}

// loadConfig reads and validates a config file. Unknown fields are
// rejected — a typoed key silently reverting to a default is exactly
// the class of footgun the file is meant to remove.
func loadConfig(path string) (*fileConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var cfg fileConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("config %s: %w", path, err)
	}
	if live := cfg.Live; live != nil {
		if live.Shards != 0 || live.MinLatencyMS != 0 || live.MaxLatencyMS != 0 || live.Loss != 0 || live.RealTime {
			return nil, fmt.Errorf("config %s: live.shards/latency/loss/realTime are cluster-backend knobs; a TCP node has real latency", path)
		}
	}
	return &cfg, nil
}

// settings is the fully resolved configuration of one node run:
// defaults, then config-file values, then explicitly set flags.
type settings struct {
	id        uint64
	listen    string
	attr      float64
	peers     map[slicing.ID]string
	slices    int
	protocol  string
	period    time.Duration
	jitter    float64
	view      int
	window    int
	report    time.Duration
	seed      int64
	serve     string
	debugAddr string
	logLevel  string
	logFormat string
}

// parseArgs resolves flags and the optional -config file into
// settings. Precedence: an explicitly set flag always wins; otherwise
// a non-zero config value; otherwise the flag default.
func parseArgs(args []string) (*settings, error) {
	fs := flag.NewFlagSet("slicenode", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "JSON config file (explicit flags override it)")
		id         = fs.Uint64("id", 0, "node identifier (required, unique)")
		listen     = fs.String("listen", "127.0.0.1:0", "listen address")
		attr       = fs.Float64("attr", 0, "attribute value (capability metric)")
		peersArg   = fs.String("peers", "", "comma-separated id=host:port peer book")
		slices     = fs.Int("slices", 10, "number of equal slices")
		protoArg   = fs.String("protocol", "ranking", "protocol: ranking|ordering")
		period     = fs.Duration("period", slicing.DefaultPeriod, "gossip period")
		view       = fs.Int("view", 20, "view size")
		window     = fs.Int("window", 0, "sliding-window size (0 = unbounded counter)")
		report     = fs.Duration("report", 2*time.Second, "status report interval")
		seed       = fs.Int64("seed", 0, "rng seed (0 = derive from id)")
		serve      = fs.String("serve", "", "answer slice queries over HTTP on this address (empty = off)")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics, /debug/trace and /debug/pprof on this address (with -serve they mount on the serve mux instead)")
		logLevel   = fs.String("log-level", "", telemetry.LogLevelUsage)
		logFormat  = fs.String("log-format", "", telemetry.LogFormatUsage)
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	jitter := slicing.DefaultJitterFrac
	peers := map[slicing.ID]string{}
	if *configPath != "" {
		cfg, err := loadConfig(*configPath)
		if err != nil {
			return nil, err
		}
		if !explicit["id"] && cfg.ID != 0 {
			*id = cfg.ID
		}
		if !explicit["listen"] && cfg.Listen != "" {
			*listen = cfg.Listen
		}
		if !explicit["attr"] {
			*attr = cfg.Attr
		}
		if !explicit["slices"] && cfg.Slices != 0 {
			*slices = cfg.Slices
		}
		if !explicit["protocol"] && cfg.Protocol != "" {
			*protoArg = cfg.Protocol
		}
		if !explicit["view"] && cfg.View != 0 {
			*view = cfg.View
		}
		if !explicit["window"] && cfg.Window != 0 {
			*window = cfg.Window
		}
		if !explicit["seed"] && cfg.Seed != 0 {
			*seed = cfg.Seed
		}
		if !explicit["serve"] && cfg.Serve != "" {
			*serve = cfg.Serve
		}
		if !explicit["debug-addr"] && cfg.DebugAddr != "" {
			*debugAddr = cfg.DebugAddr
		}
		if !explicit["report"] && cfg.ReportMS > 0 {
			*report = time.Duration(cfg.ReportMS * float64(time.Millisecond))
		}
		if live := cfg.Live; live != nil {
			if !explicit["period"] && live.PeriodMS > 0 {
				*period = time.Duration(live.PeriodMS * float64(time.Millisecond))
			}
			if live.JitterFrac != nil {
				jitter = *live.JitterFrac
			}
		}
		for idStr, addr := range cfg.Peers {
			pid, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("config %s: bad peer id %q: %w", *configPath, idStr, err)
			}
			peers[slicing.ID(pid)] = addr
		}
	}
	if *peersArg != "" {
		flagPeers, err := parsePeers(*peersArg)
		if err != nil {
			return nil, err
		}
		peers = flagPeers
	}
	if *id == 0 {
		return nil, fmt.Errorf("missing -id")
	}
	if *seed == 0 {
		*seed = int64(*id)
	}
	return &settings{
		id: *id, listen: *listen, attr: *attr, peers: peers,
		slices: *slices, protocol: *protoArg,
		period: *period, jitter: jitter,
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
		JitterFrac: set.jitter,
		Telemetry:  reg,
		Trace:      ring,
	}
	// A zero JitterFrac field means DefaultJitterFrac; a configured
	// live.jitterFrac of 0 means strictly periodic gossip.
	if set.jitter == 0 {
		cfg.JitterFrac = slicing.JitterNone
	}
	cal := slicing.RankingServingCalibration
	switch set.protocol {
	case "ranking":
		cfg.Protocol = slicing.LiveRanking
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
		cfg.Protocol = slicing.LiveOrdering
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
