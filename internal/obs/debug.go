package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs/tsdb"
)

// NewDebugMux builds the live debug endpoint:
//
//	/metrics        Prometheus text exposition of reg
//	/debug/vars     the process expvar namespace (reg is published there)
//	/debug/pprof/   the standard pprof handlers
//	/debug/tsdb/    the time-series store's query API (404 when db is nil):
//	                index, /debug/tsdb/query, /debug/tsdb/episodes
//
// reg may be nil to serve only pprof and expvar.
func NewDebugMux(reg *Registry, db *tsdb.Store) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		reg.PublishExpvar("mifo")
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if db != nil {
		mux.Handle("/debug/tsdb", http.RedirectHandler("/debug/tsdb/", http.StatusMovedPermanently))
		mux.Handle("/debug/tsdb/", http.StripPrefix("/debug/tsdb", db.Handler()))
	}
	return mux
}

// DebugServer is a running debug endpoint. Unlike a bare *http.Server it
// knows its bound address (so ":0" callers can tell tools like mifo-top
// where to point) and its Close drains in-flight handlers instead of
// snapping their connections.
type DebugServer struct {
	srv  *http.Server
	addr net.Addr
	// ShutdownTimeout bounds how long Close waits for in-flight handlers;
	// zero means a 3-second default.
	ShutdownTimeout time.Duration
}

// Addr is the bound listen address (useful after listening on ":0").
func (d *DebugServer) Addr() net.Addr { return d.addr }

// Port is the bound TCP port.
func (d *DebugServer) Port() int {
	if a, ok := d.addr.(*net.TCPAddr); ok {
		return a.Port
	}
	_, p, err := net.SplitHostPort(d.addr.String())
	if err != nil {
		return 0
	}
	n, _ := strconv.Atoi(p) //mifolint:ignore droppederr a non-numeric port renders as 0, the documented "unknown" value
	return n
}

// URL is a base URL a client on this host can dial, with unspecified
// listen hosts (":0", "0.0.0.0") rewritten to loopback. mifo-top's -addr
// flag accepts it directly.
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
// immediately, in-flight handlers get ShutdownTimeout to finish, and only
// then are surviving connections force-closed. A long pprof profile
// stream therefore cannot wedge process exit, and a short /metrics scrape
// is never cut off mid-body.
func (d *DebugServer) Close() error {
	timeout := d.ShutdownTimeout
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
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
// its Addr/Port/URL report where the listener actually bound.
func ServeDebug(addr string, reg *Registry, db *tsdb.Store) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewDebugMux(reg, db)}
	go srv.Serve(ln)
	return &DebugServer{srv: srv, addr: ln.Addr()}, nil
}
