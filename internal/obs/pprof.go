package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// pprofHandler returns a mux serving only the net/http/pprof endpoints.
// It is meant for a dedicated debug listener: the daemons mount it on a
// separate address behind -pprof-addr, never on the public API mux, so
// profiling can stay firewalled off from alignment traffic.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServePprof binds addr and serves the pprof endpoints on it in a
// background goroutine. It returns the bound address (useful with
// ":0") and a closer that shuts the listener down. The returned server
// has no relation to the public API server — it is always a separate
// listener.
func ServePprof(addr string) (string, *http.Server, error) {
	return Serve(addr, pprofHandler())
}

// Serve binds addr and serves h on it in a background goroutine: the
// shared separate-listener pattern behind the daemons' -pprof-addr and
// -metrics-addr flags. It returns the bound address (useful with ":0")
// and the server for shutdown; the listener is always distinct from the
// public API server.
func Serve(addr string, h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv, nil
}
