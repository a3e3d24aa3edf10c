package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF(1, 2, 3, 4)
	cases := []struct {
		v, want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.5}, {4, 1}, {5, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.v); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestCDFFractionAtLeast(t *testing.T) {
	c := NewCDF(100, 200, 300, 400, 500)
	if got := c.FractionAtLeast(300); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("FractionAtLeast(300) = %v, want 0.6", got)
	}
	if got := c.FractionAtLeast(501); got != 0 {
		t.Errorf("FractionAtLeast(501) = %v, want 0", got)
	}
	if got := c.FractionAtLeast(0); got != 1 {
		t.Errorf("FractionAtLeast(0) = %v, want 1", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(1) != 0 || c.FractionAtLeast(1) != 0 {
		t.Error("empty CDF should report 0 probabilities")
	}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) {
		t.Error("empty CDF quantile/mean should be NaN")
	}
	if !math.IsNaN(c.Min()) || !math.IsNaN(c.Max()) {
		t.Error("empty CDF min/max should be NaN")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	if got := c.Quantile(0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Errorf("q0 = %v, want 10", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
	if got := c.Quantile(0.91); got != 100 {
		t.Errorf("q0.91 = %v, want 100", got)
	}
}

func TestCDFMeanMinMax(t *testing.T) {
	c := NewCDF(2, 4, 9)
	if got := c.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	if c.Min() != 2 || c.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", c.Min(), c.Max())
	}
}

func TestCDFRows(t *testing.T) {
	c := NewCDF(0, 500, 1000)
	rows := c.Rows(0, 1000, 10)
	if len(rows) != 11 {
		t.Fatalf("len(rows) = %d, want 11", len(rows))
	}
	if rows[0].X != 0 || rows[10].X != 1000 {
		t.Errorf("row endpoints = %v..%v, want 0..1000", rows[0].X, rows[10].X)
	}
	last := -1.0
	for _, r := range rows {
		if r.Y < last {
			t.Fatalf("CDF rows must be monotone, got %v after %v", r.Y, last)
		}
		last = r.Y
	}
	if rows[10].Y != 100 {
		t.Errorf("final row = %v%%, want 100%%", rows[10].Y)
	}
}

// Property: At is monotone and bounded in [0, 1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(samples []float64, probes []float64) bool {
		c := NewCDF(samples...)
		sort.Float64s(probes)
		prev := 0.0
		for _, p := range probes {
			v := c.At(p)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: At(v) + FractionAtLeast(v') roughly partition the samples when v'
// is just above v (strict/non-strict complement).
func TestQuickCDFComplement(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		c := NewCDF(raw...)
		if c.N() == 0 {
			return true
		}
		le := c.At(probe) * float64(c.N())
		gt := float64(c.N()) - le
		ge := c.FractionAtLeast(probe) * float64(c.N())
		// ge counts samples == probe too, so ge >= gt always.
		return ge >= gt-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 6; i++ {
		h.Add(1)
	}
	for i := 0; i < 3; i++ {
		h.Add(2)
	}
	h.Add(5)
	if h.Total() != 10 {
		t.Fatalf("total = %d, want 10", h.Total())
	}
	if got := h.Fraction(1); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("fraction(1) = %v, want 0.6", got)
	}
	if got := h.FractionAtMost(2); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("fractionAtMost(2) = %v, want 0.9", got)
	}
	if keys := h.Keys(); len(keys) != 3 || keys[0] != 1 || keys[2] != 5 {
		t.Errorf("keys = %v, want [1 2 5]", keys)
	}
	if !strings.Contains(h.String(), "60.0%") {
		t.Errorf("String() missing percentage: %q", h.String())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Fraction(0) != 0 || h.FractionAtMost(10) != 0 {
		t.Error("empty histogram fractions should be 0")
	}
}

func TestSummary(t *testing.T) {
	s := NewSummary("Table I")
	s.Set("# of Nodes", "%d", 44340)
	s.Set("# of Links", "%d", 109360)
	s.Set("# of Nodes", "%d", 44341) // overwrite keeps order
	out := s.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "44341") {
		t.Errorf("summary output wrong: %q", out)
	}
	if strings.Index(out, "Nodes") > strings.Index(out, "Links") {
		t.Error("summary must preserve insertion order")
	}
	if got := s.Get("# of Links"); got != "109360" {
		t.Errorf("Get = %q, want 109360", got)
	}
}

func TestSeriesString(t *testing.T) {
	s := Series{Name: "bgp", Rows: []Row{{X: 0, Y: 0}, {X: 100, Y: 42.5}}}
	out := s.String()
	if !strings.HasPrefix(out, "# bgp\n") || !strings.Contains(out, "100\t42.50") {
		t.Errorf("series output wrong: %q", out)
	}
}

func BenchmarkCDFAt(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	c := &CDF{}
	for i := 0; i < 100000; i++ {
		c.Add(rng.Float64() * 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.At(float64(i % 1000))
	}
}
