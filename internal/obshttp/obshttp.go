// Package obshttp is the HTTP face of the observability layer, shared
// by hopiserve and hopirouter: the /metrics and /stats handlers, the
// structured access-log middleware (which also mints or echoes the
// X-Hopi-Trace correlation ID), and the loopback pprof listener.
package obshttp

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"hopi/internal/obs"
	"hopi/internal/shardrouter"
)

// MetricsContentType is the Prometheus text exposition content type.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves reg as Prometheus text on GET.
func MetricsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are already out; the truncated body fails the
			// scraper's parse, which is the visible failure we want.
			log.Printf("obshttp: /metrics write: %v", err)
		}
	})
}

// StatsHandler serves reg as one JSON object (see obs.WriteJSON): the
// /stats rendering of the registry /metrics serves as text.
func StatsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			log.Printf("obshttp: /stats write: %v", err)
		}
	})
}

// statusWriter captures the status code and body size for the access
// log. It forwards Flush so NDJSON streaming endpoints (/watch,
// /query/stream) keep their incremental delivery through the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLog wraps next with a structured access log: one line per
// request with method, path, status, duration, response bytes, and the
// request's trace ID. An inbound X-Hopi-Trace is used as-is (so router
// and shard logs correlate on the same ID, and a router-minted query
// trace reaches every shard's access log); otherwise one is minted
// here. Either way the ID is echoed on the response, so clients can
// quote it when reporting a slow or failed request.
func AccessLog(l *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get(shardrouter.TraceHeader)
		if trace == "" {
			trace = shardrouter.NewTraceID()
			r.Header.Set(shardrouter.TraceHeader, trace)
		}
		w.Header().Set(shardrouter.TraceHeader, trace)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			// Handler wrote nothing (e.g. a drained stream): the net/http
			// default applies.
			sw.status = http.StatusOK
		}
		l.Printf("access method=%s path=%s status=%d dur=%s bytes=%d trace=%s",
			r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond), sw.bytes, trace)
	})
}

// ServePprof starts net/http/pprof on its own listener and mux — never
// the public API mux, so profiling endpoints cannot be reached through
// the serving port. addr defaults to loopback when only a port is
// given (":6060" binds 127.0.0.1:6060); binding a non-loopback address
// requires spelling it out. Returns the bound address.
func ServePprof(addr string) (string, error) {
	if host, _, err := net.SplitHostPort(addr); err == nil && host == "" {
		addr = "127.0.0.1" + addr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("pprof listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("obshttp: pprof server: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}
