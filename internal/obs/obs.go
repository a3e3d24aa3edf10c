// Package obs is the operational telemetry layer of the repository: a
// low-overhead metrics registry (atomic counters, gauges, and bounded
// histograms with label support), a fixed-capacity ring-buffer event trace
// for forwarding-decision auditing, and a live debug HTTP endpoint that
// exposes both (plus pprof) on a running process.
//
// The paper's MIFO daemon "constantly collects available link capacity
// from the data plane" (Section III-C, Fig. 10); this package is the part
// a production deployment would add on top: the ability to ask a live
// system *why* a flow was deflected, where packets are being dropped, and
// how long control epochs take. Everything is allocation-free on the hot
// path and near-zero cost when disabled, so the forwarding engine and the
// simulators can stay instrumented permanently.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be >= 0; negative deltas are
// ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricType tags a family's kind for exposition.
type metricType int8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// family is one named metric with zero or more labeled series.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // label-value key -> *Counter | *Gauge | *Histogram
}

// labelKey joins label values into a map key. \xff cannot appear in valid
// UTF-8 label values, so the join is unambiguous.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) get(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = make()
		f.series[key] = m
	}
	return m
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use, and registering
// the same name twice returns the same family (so packages can share a
// registry without coordinating who registers first).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// metricName is the form every metric name takes: lowercase snake_case
// of at least two segments, the first naming the owning component
// (netd_*, core_*). A '-' or '.' would not be valid Prometheus exposition.
var metricName = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// register finds or creates a family, panicking on a malformed name and
// on redefinition with a different shape (same name, different type or
// labels is always a bug).
func (r *Registry) register(name, help string, typ metricType, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if !metricName.MatchString(name) {
			panic(fmt.Sprintf("obs: metric name %q is not snake_case with a component prefix", name))
		}
		f = &family{
			name: name, help: help, typ: typ,
			labels: append([]string(nil), labels...),
			series: make(map[string]any),
		}
		if typ == typeHistogram {
			f.buckets = normalizeBuckets(buckets)
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ || !equalStrings(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
	}
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the unlabeled counter with the given name, creating it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil, nil)
	return f.get(nil, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil, nil)
	return f.get(nil, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the unlabeled histogram with the given name. buckets
// are upper bounds in ascending order; nil uses DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, typeHistogram, nil, buckets)
	return f.get(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Resolve once and hold the handle on hot paths — With takes
// the family lock.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given name.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// sortedFamilies snapshots the families in name order for deterministic
// exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries snapshots one family's series in label-key order.
func (f *family) sortedSeries() []struct {
	key string
	m   any
} {
	f.mu.Lock()
	out := make([]struct {
		key string
		m   any
	}, 0, len(f.series))
	for k, m := range f.series {
		out = append(out, struct {
			key string
			m   any
		}{k, m})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
