package obs

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkts_total", "packets processed").Add(7)
	r.GaugeVec("link_bps", "link rate", "router", "port").With("3", "1").Set(2.5e6)
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pkts_total packets processed\n",
		"# TYPE pkts_total counter\n",
		"pkts_total 7\n",
		"# TYPE link_bps gauge\n",
		`link_bps{router="3",port="1"} 2.5e+06` + "\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.01"} 1` + "\n",
		`lat_seconds_bucket{le="0.1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_sum 5.055\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got:\n%s", want, out)
		}
	}
	// Families must appear in sorted name order for diff-able output.
	if strings.Index(out, "# TYPE lat_seconds") > strings.Index(out, "# TYPE link_bps") &&
		strings.Index(out, "# TYPE link_bps") > strings.Index(out, "# TYPE pkts_total") {
		t.Error("families not emitted in sorted order")
	}
}

func TestHistogramLabelSeriesExposition(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("proc_seconds", "", []float64{1}, "router")
	v.With("0").Observe(0.5)
	v.With("1").Observe(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`proc_seconds_bucket{router="0",le="1"} 1`,
		`proc_seconds_bucket{router="1",le="1"} 0`,
		`proc_seconds_bucket{router="1",le="+Inf"} 1`,
		`proc_seconds_count{router="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got:\n%s", want, out)
		}
	}
}

// TestMetricsEndpointGolden scrapes /metrics through the debug mux and
// pins the exposition byte for byte: the content type, every HELP/TYPE
// header, series ordering, and the full histogram expansion. All
// observations are exact binary fractions so float formatting is stable.
func TestMetricsEndpointGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("conv_events_total", "failure events traced").Add(3)
	r.Gauge("span_queue_depth", "spans queued for the collector").Set(4)
	v := r.HistogramVec("span_stage_seconds", "per-stage convergence latency", []float64{0.25, 2}, "stage")
	for _, o := range []float64{0.125, 0.5, 4} {
		v.With("fib_commit").Observe(o)
	}
	v.With("fib_swap").Observe(0.5)

	rec := httptest.NewRecorder()
	NewDebugMux(r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if got, want := rec.Header().Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Errorf("Content-Type = %q, want %q", got, want)
	}

	const golden = `# HELP conv_events_total failure events traced
# TYPE conv_events_total counter
conv_events_total 3
# HELP span_queue_depth spans queued for the collector
# TYPE span_queue_depth gauge
span_queue_depth 4
# HELP span_stage_seconds per-stage convergence latency
# TYPE span_stage_seconds histogram
span_stage_seconds_bucket{stage="fib_commit",le="0.25"} 1
span_stage_seconds_bucket{stage="fib_commit",le="2"} 2
span_stage_seconds_bucket{stage="fib_commit",le="+Inf"} 3
span_stage_seconds_sum{stage="fib_commit"} 4.625
span_stage_seconds_count{stage="fib_commit"} 3
span_stage_seconds_bucket{stage="fib_swap",le="0.25"} 0
span_stage_seconds_bucket{stage="fib_swap",le="2"} 1
span_stage_seconds_bucket{stage="fib_swap",le="+Inf"} 1
span_stage_seconds_sum{stage="fib_swap"} 0.5
span_stage_seconds_count{stage="fib_swap"} 1
`
	if got := rec.Body.String(); got != golden {
		t.Errorf("exposition diverged from golden\n--- got:\n%s--- want:\n%s", got, golden)
	}
	checkBucketCumulativity(t, rec.Body.String())
}

// checkBucketCumulativity re-derives the histogram invariants from the
// exposition text itself: within each series the bucket counts are
// non-decreasing, the +Inf bucket exists, and it equals the _count line.
// This holds for any scrape, independent of the golden body above.
func checkBucketCumulativity(t *testing.T, body string) {
	t.Helper()
	type state struct {
		last   int64
		inf    int64
		hasInf bool
	}
	series := map[string]*state{}
	counts := map[string]int64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		metric, val := line[:sp], line[sp+1:]
		name, labels := metric, ""
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			name, labels = metric[:i], strings.TrimSuffix(metric[i+1:], "}")
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			// The le pair is always rendered last; peel it off to key the
			// series by histogram name + the remaining labels.
			i := strings.LastIndex(labels, `le="`)
			if i < 0 {
				t.Fatalf("bucket line %q has no le label", line)
			}
			le := labels[i:]
			key := strings.TrimSuffix(name, "_bucket")
			if rest := strings.TrimSuffix(labels[:i], ","); rest != "" {
				key += "{" + rest + "}"
			}
			s := series[key]
			if s == nil {
				s = &state{}
				series[key] = s
			}
			if n < s.last {
				t.Errorf("series %s: bucket %s count %d < previous bucket %d (not cumulative)", key, le, n, s.last)
			}
			s.last = n
			if strings.Contains(le, "+Inf") {
				s.inf, s.hasInf = n, true
			}
		case strings.HasSuffix(name, "_count"):
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("count line %q: %v", line, err)
			}
			key := strings.TrimSuffix(name, "_count")
			if labels != "" {
				key += "{" + labels + "}"
			}
			counts[key] = n
		}
	}
	if len(series) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	for key, s := range series {
		if !s.hasInf {
			t.Errorf("series %s has no +Inf bucket", key)
			continue
		}
		if c, ok := counts[key]; !ok || c != s.inf {
			t.Errorf("series %s: +Inf bucket %d != _count %d", key, s.inf, c)
		}
	}
}

// failingWriter refuses every write, the way a closed connection does.
type failingWriter struct{}

var errConnClosed = errors.New("connection closed")

func (failingWriter) Write([]byte) (int, error) { return 0, errConnClosed }

// A registry this small fits the exposition's buffer whole, so the final
// flush is the only write that reaches the writer and its error the only
// report that the scrape was lost.
func TestWritePrometheusReportsFailedFlush(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkts_total", "packets processed").Add(7)
	if err := r.WritePrometheus(failingWriter{}); !errors.Is(err, errConnClosed) {
		t.Fatalf("WritePrometheus into a failing writer: got %v, want %v", err, errConnClosed)
	}
}
