// Package metrics provides the statistics containers used to regenerate the
// paper's tables and figures: empirical CDFs (Figs. 5, 6, 7, 12b), bar
// histograms (Figs. 8, 9), time series (Fig. 12a), and scalar summaries.
//
// All containers print themselves as plain gnuplot-style rows so the output
// of cmd/mifo-sim can be compared line-by-line with the paper's plots.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF returns a CDF seeded with the given samples.
func NewCDF(samples ...float64) *CDF {
	c := &CDF{}
	c.AddAll(samples)
	return c
}

// Add appends one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// AddAll appends a batch of samples.
func (c *CDF) AddAll(vs []float64) {
	c.samples = append(c.samples, vs...)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns P(X <= v) in [0, 1]. It returns 0 for an empty CDF.
func (c *CDF) At(v float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.samples, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// FractionAtLeast returns P(X >= v). This is the form the paper quotes
// ("40% of the flows can use at least 50% of the link capacity").
func (c *CDF) FractionAtLeast(v float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.samples, v)
	return float64(len(c.samples)-i) / float64(len(c.samples))
}

// Quantile returns the q-th quantile for q in [0, 1], using the nearest-rank
// method. It returns NaN for an empty CDF.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	i := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if i < 0 {
		i = 0
	}
	return c.samples[i]
}

// Mean returns the sample mean, or NaN for an empty CDF.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// Min returns the smallest sample, or NaN for an empty CDF.
func (c *CDF) Min() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return c.samples[0]
}

// Max returns the largest sample, or NaN for an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return c.samples[len(c.samples)-1]
}

// Rows evaluates the CDF at n+1 evenly spaced points spanning [lo, hi] and
// returns (x, P(X<=x)·100%) pairs — the series the paper's CDF figures plot.
func (c *CDF) Rows(lo, hi float64, n int) []Row {
	if n < 1 {
		n = 1
	}
	rows := make([]Row, 0, n+1)
	for i := 0; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n)
		rows = append(rows, Row{X: x, Y: 100 * c.At(x)})
	}
	return rows
}

// Row is a single (x, y) point of a printed series.
type Row struct {
	X, Y float64
}

// Series is a named sequence of rows, e.g. one curve of a figure.
type Series struct {
	Name string
	Rows []Row
}

// String formats the series as "# name" followed by "x y" lines.
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%g\t%.2f\n", r.X, r.Y)
	}
	return b.String()
}

// WriteGnuplot writes series as gnuplot-ready blocks: each series is one
// data block ("# name" then x<TAB>y rows) separated by two blank lines, so
// `plot 'file' index N` selects one curve.
func WriteGnuplot(w io.Writer, series ...Series) error {
	for i, s := range series {
		if i > 0 {
			if _, err := fmt.Fprint(w, "\n\n"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprint(w, s.String()); err != nil {
			return err
		}
	}
	return nil
}

// Histogram is a counting histogram over small non-negative integer keys
// (e.g. path-switch counts in Fig. 9).
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add increments the count for key k.
func (h *Histogram) Add(k int) {
	h.counts[k]++
	h.total++
}

// Count returns the count recorded for key k.
func (h *Histogram) Count(k int) int { return h.counts[k] }

// Total returns the total number of additions.
func (h *Histogram) Total() int { return h.total }

// Fraction returns the share of additions that had key k, in [0, 1].
func (h *Histogram) Fraction(k int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[k]) / float64(h.total)
}

// FractionAtMost returns the share of additions with key <= k.
func (h *Histogram) FractionAtMost(k int) float64 {
	if h.total == 0 {
		return 0
	}
	n := 0
	for key, c := range h.counts {
		if key <= k {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// Keys returns the recorded keys in ascending order.
func (h *Histogram) Keys() []int {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// String prints "key count percent" lines in key order.
func (h *Histogram) String() string {
	var b strings.Builder
	for _, k := range h.Keys() {
		fmt.Fprintf(&b, "%d\t%d\t%.1f%%\n", k, h.counts[k], 100*h.Fraction(k))
	}
	return b.String()
}

// TimeSeries accumulates (t, v) samples, e.g. aggregate throughput over time.
type TimeSeries struct {
	Name string
	Rows []Row
}

// Add appends a sample. Samples are expected in non-decreasing time order.
func (ts *TimeSeries) Add(t, v float64) {
	ts.Rows = append(ts.Rows, Row{X: t, Y: v})
}

// String formats the series like Series.String.
func (ts *TimeSeries) String() string {
	return Series{Name: ts.Name, Rows: ts.Rows}.String()
}

// Summary holds scalar key/value results for a table-like artifact.
type Summary struct {
	Title string
	keys  []string
	vals  map[string]string
}

// NewSummary returns an empty summary with the given title.
func NewSummary(title string) *Summary {
	return &Summary{Title: title, vals: make(map[string]string)}
}

// Set records a formatted value under key, preserving insertion order.
func (s *Summary) Set(key, format string, args ...any) {
	if _, ok := s.vals[key]; !ok {
		s.keys = append(s.keys, key)
	}
	s.vals[key] = fmt.Sprintf(format, args...)
}

// Get returns the recorded value for key, or "".
func (s *Summary) Get(key string) string { return s.vals[key] }

// String prints the summary as aligned "key: value" lines.
func (s *Summary) String() string {
	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", s.Title)
	}
	width := 0
	for _, k := range s.keys {
		if len(k) > width {
			width = len(k)
		}
	}
	for _, k := range s.keys {
		fmt.Fprintf(&b, "%-*s  %s\n", width+1, k+":", s.vals[k])
	}
	return b.String()
}
