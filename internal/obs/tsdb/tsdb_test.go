package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/jsonl"
)

func TestRawRingRoundTrip(t *testing.T) {
	st := NewStore()
	s := st.SeriesVec("test_series", "round trip").With()
	for i := 0; i < 10; i++ {
		s.Sample(int64(i*100), float64(i))
	}
	pts := s.Raw()
	if len(pts) != 10 {
		t.Fatalf("want 10 points, got %d", len(pts))
	}
	for i, p := range pts {
		if p.TS != int64(i*100) || p.V != float64(i) {
			t.Fatalf("point %d mismatch: %+v", i, p)
		}
	}
}

func TestSeriesVecLabels(t *testing.T) {
	st := NewStore()
	vec := st.SeriesVec("test_vec", "", "run", "link")
	a := vec.With("1", "a")
	b := vec.With("1", "b")
	if a == b {
		t.Fatal("distinct label values must get distinct series")
	}
	if vec.With("1", "a") != a {
		t.Fatal("With must be idempotent")
	}
	a.Sample(1, 0.5)
	if got := st.Gather(); len(got) != 2 {
		t.Fatalf("gather: want 2 series, got %d", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("label arity mismatch must panic")
		}
	}()
	vec.With("only-one")
}

func TestRegistrationConflictPanics(t *testing.T) {
	st := NewStore()
	st.SeriesVec("test_conflict", "", "run")
	for _, c := range []struct {
		what     string
		register func()
	}{
		{"re-registration with different labels", func() { st.SeriesVec("test_conflict", "", "run", "link") }},
		{"a name with a '-'", func() { st.SeriesVec("netsim-link_util", "") }},
		{"a name with a '.'", func() { st.SeriesVec("netsim.link_util", "", "link") }},
		{"a one-segment name", func() { st.SeriesVec("util", "") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", c.what)
				}
			}()
			c.register()
		}()
	}
}

// TestSampleAllocFree pins the sample path's cost: it allocates only
// when the series' slice grows, and the slice grows by doubling at least,
// so 4,096 samples allocate no more than the 13 doublings from one point.
func TestSampleAllocFree(t *testing.T) {
	s := NewStore().SeriesVec("test_alloc", "").With()
	allocs := testing.AllocsPerRun(1, func() {
		s.pts = nil
		for ts := int64(0); ts < 4096; ts++ {
			s.Sample(ts, 0.5)
		}
	})
	t.Logf("%v allocations", allocs)
	if allocs > 13 {
		t.Fatalf("4096 samples allocate %v times, want at most 13", allocs)
	}
}

func TestPointJSONRoundTrip(t *testing.T) {
	for _, p := range []Point{{TS: 0, V: 0}, {TS: 12345, V: 0.875}, {TS: -5, V: 1e9}} {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q Point
		if err := json.Unmarshal(b, &q); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if q != p {
			t.Fatalf("round trip: %+v -> %s -> %+v", p, b, q)
		}
	}
}

func TestEpisodeDetection(t *testing.T) {
	spec := EpisodeSpec{
		Util:        "link_util",
		Deflections: "link_defl",
		OffloadBits: "link_off",
		Threshold:   0.9,
		Window:      20,
		MaxGap:      1000,
	}
	util := SeriesDump{Name: "link_util", Values: []string{"1", "a"}, Points: []Point{
		{0, 0.5}, {10, 0.95}, {20, 0.97}, {30, 0.99}, {40, 0.96}, {50, 0.4}, {60, 0.3},
	}}
	defl := SeriesDump{Name: "link_defl", Values: []string{"1", "a"}, Points: []Point{
		{0, 0}, {10, 0}, {20, 3}, {30, 5}, {40, 5}, {50, 5},
	}}
	off := SeriesDump{Name: "link_off", Values: []string{"1", "a"}, Points: []Point{
		{0, 0}, {20, 1000}, {40, 4000}, {50, 5000},
	}}
	// A second link that never congests.
	cold := SeriesDump{Name: "link_util", Values: []string{"1", "b"}, Points: []Point{
		{0, 0.1}, {50, 0.2},
	}}
	rep := Analyze([]SeriesDump{util, defl, off, cold}, spec)
	if rep.SeriesScanned != 2 || rep.LinksWithEpisodes != 1 {
		t.Fatalf("scan counts wrong: %+v", rep)
	}
	if len(rep.Episodes) != 1 {
		t.Fatalf("want 1 episode, got %d", len(rep.Episodes))
	}
	e := rep.Episodes[0]
	if e.Start != 10 || e.End != 50 || e.Active {
		t.Fatalf("episode bounds wrong: %+v", e)
	}
	if e.Peak != 0.99 || e.Samples != 4 {
		t.Fatalf("episode stats wrong: %+v", e)
	}
	if e.Deflections != 5 {
		t.Fatalf("want 5 deflections attributed, got %d", e.Deflections)
	}
	if e.FirstDeflection != 20 {
		t.Fatalf("want first deflection at 20, got %d", e.FirstDeflection)
	}
	if e.ReliefLatency != 30 {
		t.Fatalf("want relief latency 30, got %d", e.ReliefLatency)
	}
	if e.OffloadBits != 5000 {
		t.Fatalf("want 5000 offloaded bits, got %g", e.OffloadBits)
	}
	if e.ReliefDrop <= 0 {
		t.Fatalf("want positive relief drop, got %g", e.ReliefDrop)
	}
	if rep.TotalDeflections != 5 || rep.TotalOffloadBits != 5000 {
		t.Fatalf("report totals wrong: %+v", rep)
	}
}

func TestEpisodeWindowFilter(t *testing.T) {
	spec := EpisodeSpec{Util: "u", Threshold: 0.9, Window: 100, MaxGap: 1000}
	blip := SeriesDump{Name: "u", Points: []Point{
		{0, 0.5}, {10, 0.95}, {20, 0.5},
	}}
	rep := Analyze([]SeriesDump{blip}, spec)
	if len(rep.Episodes) != 0 {
		t.Fatalf("a 10-tick blip must not pass a 100-tick window: %+v", rep.Episodes)
	}
}

func TestEpisodeActiveAtEnd(t *testing.T) {
	spec := EpisodeSpec{Util: "u", Threshold: 0.9, Window: 10, MaxGap: 1000}
	hot := SeriesDump{Name: "u", Points: []Point{
		{0, 0.95}, {10, 0.96}, {20, 0.97},
	}}
	rep := Analyze([]SeriesDump{hot}, spec)
	if len(rep.Episodes) != 1 || !rep.Episodes[0].Active {
		t.Fatalf("episode still above threshold at end must be active: %+v", rep.Episodes)
	}
}

func TestEpisodeGapSplits(t *testing.T) {
	spec := EpisodeSpec{Util: "u", Threshold: 0.9, Window: 10, MaxGap: 50}
	gappy := SeriesDump{Name: "u", Points: []Point{
		{0, 0.95}, {10, 0.96}, {20, 0.95},
		// 500-tick observation gap: must split, not bridge.
		{520, 0.97}, {530, 0.95}, {540, 0.4},
	}}
	rep := Analyze([]SeriesDump{gappy}, spec)
	if len(rep.Episodes) != 2 {
		t.Fatalf("want the gap to split into 2 episodes, got %d: %+v", len(rep.Episodes), rep.Episodes)
	}
	if !rep.Episodes[0].Active || rep.Episodes[0].End != 20 {
		t.Fatalf("first episode must close at the gap: %+v", rep.Episodes[0])
	}
}

func TestDumpRoundTrip(t *testing.T) {
	st := NewStore()
	st.SetEpisodeSpec(EpisodeSpec{Util: "test_util", Threshold: 0.8, Window: 5})
	vec := st.SeriesVec("test_util", "link utilization", "link")
	a := vec.With("a")
	for i := 0; i < 20; i++ {
		a.Sample(int64(i), 0.9)
	}
	st.SeriesVec("test_scalar", "").With().Sample(5, 42)

	path := filepath.Join(t.TempDir(), "dump.jsonl")
	sink, err := jsonl.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteDump(sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	series, spec, err := ReadDump(f)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Util != "test_util" || spec.Threshold != 0.8 {
		t.Fatalf("spec did not survive the dump: %+v", spec)
	}
	if len(series) != 2 {
		t.Fatalf("want 2 series in dump, got %d", len(series))
	}
	got := st.Gather()
	if !reflect.DeepEqual(series, got) {
		t.Fatalf("dump round trip mismatch:\n  dumped: %+v\n  live:   %+v", series, got)
	}
	// The offline analyzer sees the same episodes as the live one.
	offline := Analyze(series, spec)
	live := Analyze(st.Gather(), st.EpisodeSpec())
	if len(offline.Episodes) != len(live.Episodes) || len(offline.Episodes) != 1 {
		t.Fatalf("offline/live episode mismatch: %d vs %d", len(offline.Episodes), len(live.Episodes))
	}
}

func TestReadDumpSkipsUnknownKinds(t *testing.T) {
	in := bytes.NewBufferString(`{"kind":"tsdb","spec":{"util":"u","threshold":0.5}}
{"kind":"future-thing","x":1}
{"kind":"series","name":"u","points":[[1,0.9],[2,0.8]]}
`)
	series, spec, err := ReadDump(in)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Util != "u" || len(series) != 1 || len(series[0].Points) != 2 {
		t.Fatalf("forward-compat read broken: spec=%+v series=%+v", spec, series)
	}
}

func TestNextRunMonotonic(t *testing.T) {
	st := NewStore()
	if a, b := st.NextRun(), st.NextRun(); a != 1 || b != 2 {
		t.Fatalf("want 1,2 got %d,%d", a, b)
	}
}

func TestFormatFloatCompact(t *testing.T) {
	if got := string(appendFloat(nil, 5)); got != "5" {
		t.Fatalf("integral floats must render without exponent: %q", got)
	}
	if got := string(appendFloat(nil, 0.875)); got != "0.875" {
		t.Fatalf("fractions must round trip: %q", got)
	}
	// Dumps keep the bytes fmt's %d and %g wrote for each value.
	for _, v := range []float64{0, -1, 1e15 - 1, 1e15, -1e15, 1e21, 2.5e-7, 1.0 / 3, -0.1, 123456789.25, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want := fmt.Sprintf("%g", v)
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			want = fmt.Sprintf("%d", int64(v))
		}
		if got := string(appendFloat(nil, v)); got != want {
			t.Errorf("appendFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestSeriesLineMatchesEncoder: a hand-written series line is the line a
// json.Encoder writes for the same fields, escaping included, and a series
// never sampled writes its points as null.
func TestSeriesLineMatchesEncoder(t *testing.T) {
	for _, sd := range []SeriesDump{
		{Name: "netsim_link_util", Labels: []string{"run", "link"}, Values: []string{"1", "4->9"}, Points: []Point{{5, 0.5}, {10, 2}, {15, 1e-9}}},
		{Name: "netsim_alt_flows", Labels: []string{"run"}, Values: []string{"<&\"\u2028>"}},
		{Name: "test_scalar", Points: []Point{{-3, -1.5}}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(struct {
			Kind string `json:"kind"`
			SeriesDump
		}{"series", sd}); err != nil {
			t.Fatal(err)
		}
		got, err := appendSeriesLine(nil, sd)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Errorf("series line\n  %s want\n  %s", got, want.String())
		}
	}
}

// A file-backed sink buffers the whole of a small dump, so the final
// Flush is the only write that reaches the file: its error is WriteDump's
// only report that the dump was lost. /dev/full fails every write.
func TestWriteDumpReportsFailedFlush(t *testing.T) {
	sink, err := jsonl.Create("/dev/full")
	if err != nil {
		t.Skipf("no /dev/full to fail the writes: %v", err)
	}
	st := NewStore()
	st.SeriesVec("test_util", "link utilization", "link").With("a").Sample(1, 0.5)
	if err := st.WriteDump(sink); err == nil {
		t.Error("WriteDump into /dev/full reported no error")
	}
	if err := sink.Close(); err == nil {
		t.Error("closing the sink after a failed dump reported no error")
	}
}
