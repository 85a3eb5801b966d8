package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	rtdebug "runtime/debug"
	"sync/atomic"
)

// DebugServer is the process's observability HTTP endpoint: the telemetry
// snapshot at /debug/telemetry, the full pprof suite at /debug/pprof/, the
// retained span ring at /debug/spans, the module's build identity at
// /debug/buildinfo, the Prometheus text exposition at /metrics, and the
// /healthz + /readyz probes. /healthz answers 200 whenever the process can
// serve HTTP at all; /readyz answers 503 until the host program calls
// SetReady(true) — machsim flips it once the engine is constructed,
// machnode once its RPC listener is up.
type DebugServer struct {
	// Addr is the bound address, with any ":0" port resolved.
	Addr  string
	srv   *http.Server
	ready atomic.Bool
}

// SetReady switches what /readyz reports: false (the initial state) serves
// 503 "starting", true serves 200 "ok". Nil-safe.
func (s *DebugServer) SetReady(ready bool) {
	if s == nil {
		return
	}
	s.ready.Store(ready)
}

// StartDebugServer binds addr and serves the debug endpoints in a
// background goroutine until Close. t may be nil: pprof and the health
// probes still work, and the telemetry surfaces are empty.
func StartDebugServer(addr string, t *Telemetry) (*DebugServer, error) {
	s := &DebugServer{}

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := t.WriteSnapshot(w); err != nil {
			// The response is already partially written; nothing to recover.
			return
		}
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(t.Spans()); err != nil {
			return
		}
	})
	mux.HandleFunc("/debug/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		bi, ok := rtdebug.ReadBuildInfo()
		if !ok {
			http.Error(w, "no build info in this binary", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := io.WriteString(w, bi.String()); err != nil {
			return
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, t.Snapshot()); err != nil {
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := io.WriteString(w, "ok\n"); err != nil {
			return
		}
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			if _, err := io.WriteString(w, "starting\n"); err != nil {
				return
			}
			return
		}
		if _, err := io.WriteString(w, "ok\n"); err != nil {
			return
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug server listen %s: %w", addr, err)
	}
	s.Addr = ln.Addr().String()
	s.srv = &http.Server{Handler: mux}
	go func() {
		// Serve returns http.ErrServerClosed on Close; any earlier failure
		// has no caller to report to, so the server just stops.
		_ = s.srv.Serve(ln) //machlint:allow errdrop Serve always returns non-nil; ErrServerClosed on Close is the expected exit
	}()
	return s, nil
}

// Close stops the server and releases the listener.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// BuildVersion returns a short build-identity string for startup logs:
// the main module's version plus the VCS revision when the binary was
// stamped with one ("(devel)" under plain `go build` from a checkout,
// "unknown" when build info is absent entirely).
func BuildVersion() string {
	bi, ok := rtdebug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	ver := bi.Main.Version
	if ver == "" {
		ver = "(devel)"
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" {
		return ver + " " + rev + dirty
	}
	return ver
}
