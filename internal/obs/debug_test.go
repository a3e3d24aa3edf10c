package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dbg_pkts_total", "packets").Add(9)

	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "dbg_pkts_total 9") {
		t.Errorf("/metrics code=%d body=%q", code, body)
	}

	code, body = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ code=%d", code)
	}

	// /metrics is the registry's only way out.
	if code, _ := get("/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars code=%d, want 404", code)
	}
}

// The time-series store is read from its dumps alone: the debug mux
// serves nothing under /debug/tsdb/.
func TestDebugMuxWithoutStore(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/debug/tsdb/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/tsdb/ without a store: code=%d, want 404", resp.StatusCode)
	}
}
