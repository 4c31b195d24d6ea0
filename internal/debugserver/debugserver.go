// Package debugserver is the in-process introspection plane: a small
// stdlib net/http server every monitored process can mount (see
// causeway.ProcessConfig.DebugAddr) exposing
//
//	/metrics      text exposition of the process's metrics.Registry
//	/statusz      process identity, armed aspects, uptime, build info
//	/chainz       recent completed chain roots from the chain table
//	/alertz       SLO alert state (JSON, cursor-friendly), when armed
//	/healthz      liveness ("ok")
//	/debug/pprof  the standard Go profiling endpoints
//
// The paper's monitoring layer observes the application; this server lets
// operators (and cmd/collectd's fleet scraper) observe the monitoring
// layer itself, live, without waiting for offline analysis.
package debugserver

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"

	"causeway/internal/alerting"
	"causeway/internal/metrics"
	"causeway/internal/streamrecon"
)

// Config assembles one process's introspection server.
type Config struct {
	// Addr is the TCP listen address; "127.0.0.1:0" picks an ephemeral
	// port (read it back with Server.Addr).
	Addr string
	// Registry is the process's metrics registry, rendered by /metrics.
	// Optional: /metrics still serves the process-level series without it.
	Registry *metrics.Registry
	// Monitor, when set, is the chain table that feeds /chainz with recent
	// completed roots.
	Monitor *streamrecon.Assembler
	// Process and ProcType identify the process on /statusz and in the
	// exposition's build-info series.
	Process  string
	ProcType string
	// Aspects describes the armed monitoring aspects for /statusz (e.g.
	// "causality+latency").
	Aspects string
	// Instrumented reports whether the instrumented wire format is
	// deployed.
	Instrumented bool
	// Alerts, when set, mounts /alertz serving the evaluator's JSON
	// status (see alerting.Evaluator.ServeAlertz).
	Alerts *alerting.Evaluator
	// Extra mounts additional handlers by path (e.g. cmd/collectd's
	// /feedz streaming-completion feed). Paths colliding with the
	// built-in endpoints are ignored.
	Extra map[string]http.HandlerFunc
}

// Server is a running introspection endpoint.
type Server struct {
	cfg   Config
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Start binds cfg.Addr and serves in a background goroutine.
func Start(cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("debugserver: %w", err)
	}
	s := &Server{cfg: cfg, ln: ln, start: time.Now()}
	// The Go runtime gauges ride the registry as a source so fleet
	// scrapers see them inside the exposition proper; re-registration is
	// idempotent when several processes share one registry.
	if cfg.Registry != nil {
		cfg.Registry.RegisterSource("go_runtime", metrics.RuntimeSource(s.start))
	}
	mux := http.NewServeMux()
	builtin := map[string]bool{
		"/healthz": true, "/metrics": true, "/statusz": true, "/chainz": true,
		"/alertz": true,
	}
	for path, h := range cfg.Extra {
		if !builtin[path] && h != nil {
			mux.HandleFunc(path, h)
		}
	}
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/chainz", s.handleChainz)
	if cfg.Alerts != nil {
		mux.HandleFunc("/alertz", cfg.Alerts.ServeAlertz)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address ("host:port").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. In-flight requests are cut, not drained — an
// introspection endpoint has nothing worth draining.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the exposition: the process identity the server
// owns, followed by the registry's series — the causeway_go_* runtime
// gauges (goroutines, heap, GC, uptime) among them, through the go_runtime
// source registered at Start.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "causeway_build_info{process=%q,proc_type=%q,go=%q} 1\n",
		s.cfg.Process, s.cfg.ProcType, runtime.Version())
	if s.cfg.Registry != nil {
		s.cfg.Registry.WriteText(w)
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "process:      %s\n", s.cfg.Process)
	fmt.Fprintf(w, "proc_type:    %s\n", s.cfg.ProcType)
	fmt.Fprintf(w, "instrumented: %v\n", s.cfg.Instrumented)
	fmt.Fprintf(w, "aspects:      %s\n", s.cfg.Aspects)
	fmt.Fprintf(w, "uptime:       %s\n", time.Since(s.start).Round(time.Millisecond))
	fmt.Fprintf(w, "started:      %s\n", s.start.Format(time.RFC3339))
	fmt.Fprintf(w, "go:           %s\n", runtime.Version())
	fmt.Fprintf(w, "goroutines:   %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "alerting:     %v\n", s.cfg.Alerts != nil)
	if bi, ok := debug.ReadBuildInfo(); ok {
		fmt.Fprintf(w, "module:       %s\n", bi.Main.Path)
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				fmt.Fprintf(w, "%-13s %s\n", kv.Key+":", kv.Value)
			}
		}
	}
}

// handleChainz lists recent completed top-level invocations, newest
// first, with the online analyzer's compensated latency.
func (s *Server) handleChainz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.cfg.Monitor == nil {
		fmt.Fprintln(w, "no online monitor attached")
		return
	}
	roots := s.cfg.Monitor.RecentRoots()
	fmt.Fprintf(w, "recent chain roots: %d\n", len(roots))
	for _, r := range roots {
		lat := "-"
		if r.HasLatency {
			lat = r.Latency.String()
		}
		kind := "sync"
		if r.Oneway {
			kind = "oneway"
		}
		fmt.Fprintf(w, "%s  chain=%s  %s::%s  kind=%s  nodes=%d  latency=%s\n",
			r.When.Format(time.RFC3339Nano), r.Chain,
			r.Op.Interface, r.Op.Operation, kind, r.Nodes, lat)
	}
}
