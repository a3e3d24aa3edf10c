package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewDebugMux builds the live debug endpoint:
//
//	/metrics        Prometheus text exposition of reg
//	/debug/pprof/   the standard pprof handlers
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug endpoint. Unlike a bare *http.Server it
// knows its bound address (so ":0" callers can print where to point a
// scraper) and its Close drains in-flight handlers instead of snapping
// their connections.
type DebugServer struct {
	srv  *http.Server
	addr net.Addr
}

// shutdownTimeout bounds how long Close waits for in-flight handlers.
const shutdownTimeout = 3 * time.Second

// URL is a base URL a client on this host can dial, with unspecified
// listen hosts (":0", "0.0.0.0") rewritten to loopback.
func (d *DebugServer) URL() string {
	host, port, err := net.SplitHostPort(d.addr.String())
	if err != nil {
		return "http://" + d.addr.String()
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// Close shuts the server down gracefully: the listener stops accepting
// immediately, in-flight handlers get shutdownTimeout to finish, and only
// then are surviving connections force-closed. A long pprof profile
// stream therefore cannot wedge process exit, and a short /metrics scrape
// is never cut off mid-body.
func (d *DebugServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if err == nil {
		return nil
	}
	if cerr := d.srv.Close(); cerr != nil && err == context.DeadlineExceeded {
		return cerr
	}
	return err
}

// ServeDebug listens on addr (e.g. "localhost:6060" or ":0") and serves
// the debug mux in the background. Close the returned server to stop;
// its URL reports where the listener actually bound.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewDebugMux(reg)}
	go srv.Serve(ln)
	return &DebugServer{srv: srv, addr: ln.Addr()}, nil
}
