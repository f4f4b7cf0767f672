package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// HandlerOptions configures the telemetry mux beyond the registry: the
// serving-introspection endpoints take callbacks so the telemetry package
// stays free of upward dependencies on the engine it describes.
type HandlerOptions struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// Ready reports serving readiness for /readyz; nil means always ready.
	// A draining server returns false and /readyz serves 503.
	Ready func() bool
	// Status builds the /statusz payload (marshaled as JSON); nil serves a
	// minimal {"ready": ...} document.
	Status func() any
	// Flight snapshots the flight recorder for /debug/flightrecorder; nil
	// (or a drained recorder) serves an empty JSON array.
	Flight func() []Record
	// Device builds the /debug/device payload (the device-health document:
	// wear heatmap rows, energy split, dedup effectiveness); nil leaves the
	// endpoint unmounted.
	Device func() any
}

// ServerOptions configures the telemetry HTTP server.
type ServerOptions struct {
	// Addr is the listen address (e.g. ":9090" or "127.0.0.1:0").
	Addr string
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// Ready, Status, Flight and Device feed the introspection endpoints
	// (see HandlerOptions).
	Ready  func() bool
	Status func() any
	Flight func() []Record
	Device func() any
}

// Server serves the live metrics endpoint:
//
//	/metrics               Prometheus text exposition
//	/debug/vars            expvar-style JSON (registry metrics + memstats)
//	/debug/pprof           net/http/pprof (opt-in)
//	/healthz               liveness (always 200 while the process serves)
//	/readyz                readiness (503 while not ready/draining)
//	/statusz               JSON serving status document
//	/debug/flightrecorder  JSON dump of the flight-recorder ring
//
// The server runs on its own mux — never the process-global
// http.DefaultServeMux — so multiple Systems can serve concurrently and
// pprof exposure stays opt-in per server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Handler builds the plain metrics mux for reg (no introspection
// callbacks). Usable standalone (e.g. to mount under an existing
// application server).
func Handler(reg *Registry, enablePprof bool) http.Handler {
	return NewHandler(reg, HandlerOptions{Pprof: enablePprof})
}

// NewHandler builds the full telemetry mux: metrics exposition plus the
// health/readiness/status/flight-recorder introspection endpoints.
func NewHandler(reg *Registry, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Ready != nil && !opts.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		var doc any
		if opts.Status != nil {
			doc = opts.Status()
		} else {
			ready := opts.Ready == nil || opts.Ready()
			doc = map[string]any{"ready": ready}
		}
		writeJSON(w, doc)
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		recs := []Record{}
		if opts.Flight != nil {
			if got := opts.Flight(); got != nil {
				recs = got
			}
		}
		writeJSON(w, recs)
	})
	if opts.Device != nil {
		mux.HandleFunc("/debug/device", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, opts.Device())
		})
	}
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "esd telemetry\n  /metrics\n  /debug/vars\n  /healthz\n  /readyz\n  /statusz\n  /debug/flightrecorder\n")
		if opts.Device != nil {
			fmt.Fprintf(w, "  /debug/device\n")
		}
		if opts.Pprof {
			fmt.Fprintf(w, "  /debug/pprof/\n")
		}
	})
	return mux
}

// writeJSON marshals doc with a 200 (or a 500 when it cannot marshal —
// which the endpoint tests treat as a bug in the status builder).
func writeJSON(w http.ResponseWriter, doc any) {
	b, err := json.Marshal(doc)
	if err != nil {
		http.Error(w, "marshal status: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(b, '\n'))
}

// NewServer listens on opts.Addr and starts serving reg in a background
// goroutine. Use Addr to discover the bound address (":0" supported) and
// Close to shut down.
func NewServer(reg *Registry, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", opts.Addr, err)
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler: NewHandler(reg, HandlerOptions{
				Pprof:  opts.Pprof,
				Ready:  opts.Ready,
				Status: opts.Status,
				Flight: opts.Flight,
				Device: opts.Device,
			}),
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server immediately, aborting any in-flight scrapes.
// For a clean drain use Shutdown.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown gracefully stops the server: it stops accepting new
// connections and waits for in-flight scrapes to finish, up to ctx's
// deadline (after which remaining connections are forcibly closed, and
// ctx.Err() is returned). Close remains the immediate, non-draining
// variant.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		_ = s.srv.Close()
	}
	return err
}
