package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "requests"); again != c {
		t.Error("re-registering the same counter must return the same handle")
	}

	g := r.Gauge("queue_ratio", "ratio")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Errorf("gauge = %v, want 0.75", got)
	}
}

func TestVecLabelsResolveToDistinctSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("drops_total", "drops", "router", "reason")
	v.With("0", "no_route").Add(2)
	v.With("0", "ttl").Inc()
	v.With("1", "no_route").Inc()
	if got := v.With("0", "no_route").Value(); got != 2 {
		t.Errorf("series (0,no_route) = %d, want 2", got)
	}
	if got := v.With("1", "no_route").Value(); got != 1 {
		t.Errorf("series (1,no_route) = %d, want 1", got)
	}
}

func TestRegisterShapeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	for _, c := range []struct {
		what     string
		register func()
	}{
		{"re-registering x_total as a gauge", func() { r.Gauge("x_total", "") }},
		{"a name with a '-'", func() { r.Counter("netd-drops_total", "") }},
		{"a name with a '.'", func() { r.GaugeVec("core.fib_entries", "", "router") }},
		{"a one-segment name", func() { r.Histogram("latency", "", nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", c.what)
				}
			}()
			c.register()
		}()
	}
}

func TestVecWrongArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("y_total", "", "router")
	defer func() {
		if recover() == nil {
			t.Error("With with wrong label count should panic")
		}
	}()
	v.With("a", "b")
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("conc_total", "", "worker")
	h := r.Histogram("conc_seconds", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := vec.With(string(rune('a' + w%4)))
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) / 1000)
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for w := 0; w < 4; w++ {
		total += vec.With(string(rune('a' + w))).Value()
	}
	if total != 8000 {
		t.Errorf("summed counters = %d, want 8000", total)
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "v").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}
