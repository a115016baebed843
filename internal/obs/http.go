package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"wackamole/internal/metrics"
)

// http.go is the live observability surface of the real daemon: a /metrics
// endpoint and /debug/events (the tracer's ring snapshot as NDJSON). Both
// are read-only snapshots assembled per request; the stats they read are
// atomic snapshots, so serving them never blocks the protocol.
//
// /metrics serves Prometheus text exposition format 0.0.4: the legacy
// counter map rendered as typed families, followed by the registry's typed
// families when a registry is installed — one scrape returns both
// generations of instrumentation.

// MetricsFunc assembles the current counter values; keys should be
// snake_case and stable across releases.
type MetricsFunc func() map[string]uint64

// Handler serves /metrics and /debug/events, plus (when profiling is
// explicitly enabled) /debug/pprof/* and /debug/vars.
type Handler struct {
	metrics   MetricsFunc
	tracer    *Tracer
	registry  *metrics.Registry
	profiling bool
}

// NewHandler builds the observability handler; metrics may be nil (no
// counter families), tracer may be nil (serves an empty event stream) and
// registry may be nil (/metrics carries the counter map alone).
func NewHandler(metricsFn MetricsFunc, tracer *Tracer, registry *metrics.Registry) *Handler {
	return &Handler{metrics: metricsFn, tracer: tracer, registry: registry}
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

// levelSuffixes mark legacy keys that report a level rather than a monotone
// count; they are typed gauge so scrapers don't compute rates over them.
var levelSuffixes = []string{"_buffered", "_depth", "_inflight", "_pending", "_queued"}

func legacyType(key string) string {
	for _, suf := range levelSuffixes {
		if strings.HasSuffix(key, suf) {
			return "gauge"
		}
	}
	return "counter"
}

// serveMetrics writes the /metrics body; see WriteMetricsProm.
func (h *Handler) serveMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", metrics.ContentType)
	// Errors mean the connection died mid-write; nothing recoverable.
	_ = WriteMetricsProm(w, h.metrics, h.registry)
}

// WriteMetricsProm writes the full metrics surface — legacy counters as
// typed families followed by the registry's families — in Prometheus text
// exposition format 0.0.4. It is the body of the /metrics endpoint, shared
// with the flight recorder's metrics.prom bundle file. A legacy key that
// collides with a registry family name (or a histogram's derived
// _bucket/_sum/_count sample names) is skipped — emitting both would yield
// duplicate TYPE/sample lines, which strict parsers reject; the registry's
// typed family is the better-specified of the two.
func WriteMetricsProm(w io.Writer, metricsFn MetricsFunc, registry *metrics.Registry) error {
	var snap metrics.Snapshot
	if registry.Enabled() {
		snap = registry.Snapshot()
	}
	reserved := map[string]bool{}
	for _, f := range snap.Families {
		reserved[f.Name] = true
		if f.Kind == metrics.KindHistogram {
			reserved[f.Name+"_bucket"] = true
			reserved[f.Name+"_sum"] = true
			reserved[f.Name+"_count"] = true
		}
	}
	vals := map[string]uint64{}
	if metricsFn != nil {
		vals = metricsFn()
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if reserved[k] {
			continue
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", k, legacyType(k), k, vals[k]); err != nil {
			return err
		}
	}
	return metrics.WritePrometheus(w, snap)
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

// Serve starts serving the observability endpoints on addr (e.g.
// "127.0.0.1:4804"); it returns once the listener is bound. registry may be
// nil, in which case /metrics carries the counter map alone.
func Serve(addr string, metricsFn MetricsFunc, tracer *Tracer, registry *metrics.Registry) (*Server, error) {
	return ServeHandler(addr, NewHandler(metricsFn, tracer, registry))
}

// ServeHandler starts serving a pre-built Handler on addr; callers use it
// when they need to configure the handler first (EnableProfiling).
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
