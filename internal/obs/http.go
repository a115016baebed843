package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"wackamole/internal/metrics"
)

// http.go is the live observability surface of the real daemon: a /metrics
// endpoint and /debug/events (the tracer's ring snapshot as NDJSON). Both
// are read-only snapshots assembled per request; the instruments they read
// are atomics, so serving them never blocks the protocol.
//
// /metrics is the registry and nothing else, in Prometheus text exposition
// format 0.0.4 — the same bytes the flight recorder spills as metrics.prom.

// Handler serves /metrics and /debug/events, plus (when profiling is
// explicitly enabled) /debug/pprof/* and /debug/vars.
type Handler struct {
	tracer    *Tracer
	registry  *metrics.Registry
	profiling bool
}

// NewHandler builds the observability handler; tracer may be nil (serves an
// empty event stream) and registry may be nil (serves an empty /metrics).
func NewHandler(tracer *Tracer, registry *metrics.Registry) *Handler {
	return &Handler{tracer: tracer, registry: registry}
}

// EnableProfiling turns on the /debug/pprof/* and /debug/vars endpoints
// (net/http/pprof and expvar). They are off by default and must stay opt-in:
// profiles expose memory contents and CPU profiling perturbs the protocol
// timing the daemon exists to keep tight, so only enable them on a loopback
// or otherwise access-controlled listener (the daemon's `pprof` config
// directive).
func (h *Handler) EnableProfiling() { h.profiling = true }

// ServeHTTP routes the endpoints.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.profiling {
		// Routed explicitly rather than importing pprof's init side effects
		// into http.DefaultServeMux, which this server never serves from.
		switch {
		case r.URL.Path == "/debug/vars":
			expvar.Handler().ServeHTTP(w, r)
			return
		case r.URL.Path == "/debug/pprof/cmdline":
			pprof.Cmdline(w, r)
			return
		case r.URL.Path == "/debug/pprof/profile":
			pprof.Profile(w, r)
			return
		case r.URL.Path == "/debug/pprof/symbol":
			pprof.Symbol(w, r)
			return
		case r.URL.Path == "/debug/pprof/trace":
			pprof.Trace(w, r)
			return
		case strings.HasPrefix(r.URL.Path, "/debug/pprof/"), r.URL.Path == "/debug/pprof":
			pprof.Index(w, r)
			return
		}
	}
	switch r.URL.Path {
	case "/metrics":
		h.serveMetrics(w)
	case "/debug/events":
		h.serveEvents(w)
	default:
		http.NotFound(w, r)
	}
}

func (h *Handler) serveMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", metrics.ContentType)
	// Errors mean the connection died mid-write; nothing recoverable.
	_ = metrics.WritePrometheus(w, h.registry.Snapshot())
}

// serveEvents streams the ring snapshot as NDJSON, oldest first.
func (h *Handler) serveEvents(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	WriteNDJSON(w, h.tracer.Snapshot())
}

// Server is a minimal HTTP listener around Handler for the real daemon.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ServeHandler starts serving h on addr (e.g. "127.0.0.1:4804"); it returns
// once the listener is bound.
func ServeHandler(addr string, h *Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }
