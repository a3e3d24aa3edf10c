package span

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a deterministic tracer clock for tests.
type fakeClock struct{ now int64 }

func (c *fakeClock) tick(d int64) { c.now += d }
func (c *fakeClock) read() int64  { return c.now }

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	clk := &fakeClock{}
	tr := New(Options{Writer: &buf, Clock: clk.read})
	defer tr.Close()

	root := tr.StartRoot("conv_test_root", -1)
	root.A, root.B, root.V = 3, 7, 1.5
	clk.tick(100)
	child := tr.Start("test_stage_one", root.Context(), 3)
	clk.tick(50)
	grand := tr.Start("test_stage_two", child.Context(), 3)
	grand.A = 42
	clk.tick(25)
	grand.End()
	child.End()
	clk.tick(10)
	root.End()

	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	r, c, g := byName["conv_test_root"], byName["test_stage_one"], byName["test_stage_two"]
	if r.Parent != 0 || r.Trace != r.ID {
		t.Errorf("root not a root: %+v", r)
	}
	if c.Parent != r.ID || c.Trace != r.Trace {
		t.Errorf("child not linked to root: child=%+v root=%+v", c, r)
	}
	if g.Parent != c.ID || g.Trace != r.Trace {
		t.Errorf("grandchild not linked to child: %+v", g)
	}
	if r.A != 3 || r.B != 7 || r.V != 1.5 || g.A != 42 {
		t.Errorf("attributes lost: root=%+v grand=%+v", r, g)
	}
	if got := r.Duration(); got != 185 {
		t.Errorf("root duration = %d, want 185", got)
	}
	if got := g.Duration(); got != 25 {
		t.Errorf("grandchild duration = %d, want 25", got)
	}
	if c.Start != 100 || c.End != 175 {
		t.Errorf("child timestamps = [%d,%d], want [100,175]", c.Start, c.End)
	}

	st := tr.Stats()
	if st.Records != 3 || st.Roots != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want 3 records / 1 root / 0 dropped", st)
	}
}

func TestDisabledAndNilTracer(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	nilTr.SetEnabled(true) // must not panic
	s := nilTr.StartRoot("test_nil_root", 0)
	s.End() // must not panic
	if s.Context().Valid() {
		t.Error("span from nil tracer has a valid context")
	}
	if got := nilTr.Stats(); got != (Stats{}) {
		t.Errorf("nil tracer stats = %+v, want zero", got)
	}
	if err := nilTr.Close(); err != nil {
		t.Errorf("nil tracer Close: %v", err)
	}

	tr := New(Options{})
	defer tr.Close()
	tr.SetEnabled(false)
	if tr.Enabled() {
		t.Error("tracer still enabled after SetEnabled(false)")
	}
	s = tr.StartRoot("test_disabled_root", 0)
	s.End()
	if st := tr.Stats(); st.Records != 0 {
		t.Errorf("disabled tracer recorded %d spans", st.Records)
	}
	tr.SetEnabled(true)
	s = tr.StartRoot("test_reenabled_root", 0)
	s.End()
	if st := tr.Stats(); st.Records != 1 {
		t.Errorf("re-enabled tracer recorded %d spans, want 1", st.Records)
	}
}

func TestChildOfZeroParentIsRoot(t *testing.T) {
	tr := New(Options{Clock: (&fakeClock{}).read})
	defer tr.Close()
	s := tr.Start("test_orphanless_span", Context{}, 5)
	if s.trace != s.id || s.parent != 0 {
		t.Errorf("span under zero context is not a root: %+v", s)
	}
	s.End()
}

func TestShedNotStall(t *testing.T) {
	// One two-slot segment and a collector that only wakes for barrier
	// commands: pushes beyond capacity must shed, never block.
	tr := New(Options{Segments: 1, SegmentCap: 2, Poll: time.Hour})
	defer tr.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			s := tr.StartRoot("test_shed_root", 0)
			s.End()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("record path blocked on a full ring")
	}
	st := tr.Stats()
	if st.Records != 2 {
		t.Errorf("collected %d records, want 2 (segment capacity)", st.Records)
	}
	if st.Dropped != 8 {
		t.Errorf("dropped = %d, want 8", st.Dropped)
	}
	if st.Backpressure != 8 {
		t.Errorf("backpressure = %d, want 8", st.Backpressure)
	}
}

func TestTracerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Options{Registry: reg, Clock: (&fakeClock{}).read})
	defer tr.Close()
	root := tr.StartRoot("test_metrics_root", 0)
	c1 := tr.Start("test_metrics_stage", root.Context(), 0)
	c1.End()
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := reg.Counter("span_records_total", "").Value(); got != 2 {
		t.Errorf("span_records_total = %d, want 2", got)
	}
	if got := reg.Counter("span_traces_total", "").Value(); got != 1 {
		t.Errorf("span_traces_total = %d, want 1", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	body := buf.String()
	for _, want := range []string{
		`span_stage_seconds_count{stage="test_metrics_root"} 1`,
		`span_stage_seconds_count{stage="test_metrics_stage"} 1`,
		"span_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

type failWriter struct{ err error }

func (w *failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestSinkErrorSurfaces(t *testing.T) {
	sinkErr := errors.New("disk on fire")
	tr := New(Options{Writer: &failWriter{err: sinkErr}})
	s := tr.StartRoot("test_sink_err_root", 0)
	s.End()
	if err := tr.Flush(); !errors.Is(err, sinkErr) {
		t.Errorf("Flush = %v, want %v", err, sinkErr)
	}
	if err := tr.Close(); !errors.Is(err, sinkErr) {
		t.Errorf("Close = %v, want %v", err, sinkErr)
	}
	// Close is idempotent and keeps reporting the retained error.
	if err := tr.Close(); !errors.Is(err, sinkErr) {
		t.Errorf("second Close = %v, want %v", err, sinkErr)
	}
}

func TestCloseDisablesAndDrains(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf})
	s := tr.StartRoot("test_close_root", 0)
	s.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if tr.Enabled() {
		t.Error("tracer still enabled after Close")
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if len(recs) != 1 {
		t.Errorf("Close drained %d records, want 1", len(recs))
	}
	// Ends after Close land in the rings and are never drained — no
	// panic, no deadlock.
	late := tr.StartRoot("test_late_root", 0)
	late.End()
}

func TestReadRecordsRejectsDamage(t *testing.T) {
	if _, err := ReadRecords(strings.NewReader("{\"trace\":1,\"id\":1,\"name\":\"x\"}\nnot json\n")); err == nil {
		t.Error("damaged line accepted")
	}
	if _, err := ReadRecords(strings.NewReader("{\"trace\":1,\"name\":\"x\"}\n")); err == nil {
		t.Error("record without id accepted")
	}
	recs, err := ReadRecords(strings.NewReader("\n{\"trace\":1,\"id\":1,\"name\":\"x\"}\n\n"))
	if err != nil || len(recs) != 1 {
		t.Errorf("blank-line log: recs=%d err=%v, want 1 record", len(recs), err)
	}
}

// The acceptance criteria require a zero-allocation record path and a
// near-free disabled path; these guards pin both.

// TestRecordPathZeroAlloc counts allocations over 1,000 spans in one run,
// so an amortized allocation does not round to zero per span.
func TestRecordPathZeroAlloc(t *testing.T) {
	tr := New(Options{Segments: 4, SegmentCap: 4096, Poll: time.Minute})
	defer tr.Close()
	parent := tr.StartRoot("test_alloc_root", 0)
	defer parent.End()
	pctx := parent.Context()
	if got := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			s := tr.Start("test_alloc_child", pctx, 7)
			s.A = 1
			s.End()
		}
	}); got != 0 {
		t.Errorf("record path allocates %v times in 1000 spans, want 0", got)
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	tr := New(Options{Poll: time.Minute})
	defer tr.Close()
	tr.SetEnabled(false)
	if got := testing.AllocsPerRun(200, func() {
		s := tr.StartRoot("test_disabled_alloc_root", 0)
		s.End()
	}); got != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", got)
	}
	var nilTr *Tracer
	if got := testing.AllocsPerRun(200, func() {
		s := nilTr.StartRoot("test_nil_alloc_root", 0)
		s.End()
	}); got != 0 {
		t.Errorf("nil-tracer path allocates %v per op, want 0", got)
	}
}

func TestConcurrentProducers(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf, Segments: 8, SegmentCap: 8192})
	const workers, per = 8, 500
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				root := tr.StartRoot("test_conc_root", int32(w))
				child := tr.Start("test_conc_child", root.Context(), int32(w))
				child.End()
				root.End()
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := tr.Stats()
	if st.Records+st.Dropped != workers*per*2 {
		t.Errorf("records(%d)+dropped(%d) != %d", st.Records, st.Dropped, workers*per*2)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if uint64(len(recs)) != st.Records {
		t.Errorf("log has %d records, stats say %d", len(recs), st.Records)
	}
	ids := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if ids[r.ID] {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		ids[r.ID] = true
	}
}
