package obs

import (
	"math"
	"testing"
)

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewRegistry().Histogram("test_seconds", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	got := h.Buckets()
	// le semantics: v == bound lands in that bound's bucket.
	wantCum := []int64{2, 4, 5, 6} // le=1: {0.5,1}; le=2: +{1.5,2}; le=5: +{3}; +Inf: +{10}
	if len(got) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(wantCum))
	}
	for i, b := range got {
		if b.CumulativeCount != wantCum[i] {
			t.Errorf("bucket %d (le=%v) cum = %d, want %d", i, b.UpperBound, b.CumulativeCount, wantCum[i])
		}
	}
	if !math.IsInf(got[len(got)-1].UpperBound, 1) {
		t.Error("last bucket must be +Inf")
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-18) > 1e-9 {
		t.Errorf("sum = %v, want 18", h.Sum())
	}
}

func TestHistogramBucketNormalization(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_unsorted_seconds", "", []float64{5, 1, 5, math.Inf(1), 2})
	if got, want := len(h.Buckets()), 4; got != want { // 1, 2, 5, +Inf
		t.Errorf("normalized bucket count = %d, want %d", got, want)
	}
	def := r.Histogram("test_default_seconds", "", nil)
	if def.Count() != 0 {
		t.Error("default-bucket histogram should start empty")
	}
	if got, want := len(def.Buckets()), len(DefBuckets)+1; got != want {
		t.Errorf("default buckets = %d, want %d", got, want)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 1e-5)
	}
}
