package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets are general-purpose histogram bounds spanning sub-millisecond
// to multi-second quantities.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// DurationBuckets are bounds in seconds tuned for code paths between a few
// hundred nanoseconds and a few seconds — receive-path latencies, daemon
// epoch durations.
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram is a fixed-bucket histogram with atomic, lock-free updates.
// Bucket semantics follow the Prometheus convention: bucket i counts
// observations v <= bounds[i]; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// normalizeBuckets sorts, dedups, and strips non-finite bounds; nil or
// empty input falls back to DefBuckets.
func normalizeBuckets(bounds []float64) []float64 {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	out := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsInf(b, 0) && !math.IsNaN(b) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// newHistogram returns an empty histogram over bounds, which register has
// normalized.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v's le-bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	// UpperBound is the bucket's le bound; +Inf for the last bucket.
	UpperBound float64
	// CumulativeCount counts observations <= UpperBound.
	CumulativeCount int64
}

// Buckets returns the cumulative bucket counts, ending with the +Inf
// bucket (whose count equals Count up to racing updates).
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out[i] = Bucket{UpperBound: bound, CumulativeCount: cum}
	}
	return out
}
