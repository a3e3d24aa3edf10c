package tsdb

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jsonl"
)

func TestRawRingRoundTrip(t *testing.T) {
	st := NewStore(Options{RawCap: 16})
	s := st.Series("test_series", "round trip")
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
	st := NewStore(Options{RawCap: 16})
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
	if got := st.Gather("test_vec"); len(got) != 2 {
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
	defer func() {
		if recover() == nil {
			t.Fatal("re-registration with different labels must panic")
		}
	}()
	st.SeriesVec("test_conflict", "", "run", "link")
}

// TestSampleAllocFree pins the hotpath contract: zero allocations.
func TestSampleAllocFree(t *testing.T) {
	st := NewStore(Options{RawCap: 64})
	s := st.Series("test_alloc", "")
	ts := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		ts++
		s.Sample(ts, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("Sample allocates %.1f per call; hotpath must be 0", allocs)
	}
}

// TestGatherWhileSampling runs every reader of a live store — Gather,
// AnalyzeStore and WriteDump — while a writer samples flat out into a
// ring small enough to wrap during a read. Each read must be whole points
// in timestamp order, and each dump must read back (run under -race via
// make tsdb-race).
func TestGatherWhileSampling(t *testing.T) {
	st := NewStore(Options{RawCap: 64})
	st.SetEpisodeSpec(EpisodeSpec{Util: "test_util", Threshold: 0.95, Window: 5, MaxGap: 1e9})
	s := st.SeriesVec("test_util", "link utilization", "run", "link").With("1", "7")

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := int64(5); !stop.Load(); ts += 5 {
			s.Sample(ts, float64(ts%100)/100)
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for i := 0; i < 200; i++ {
		got := st.Gather()
		if len(got) != 1 {
			t.Fatalf("gather returned %d series, want 1", len(got))
		}
		pts := got[0].Points
		for j := 1; j < len(pts); j++ {
			if pts[j].TS != pts[j-1].TS+5 || pts[j].V != float64(pts[j].TS%100)/100 {
				t.Fatalf("gather %d: point %d is %+v after %+v: torn or out of order", i, j, pts[j], pts[j-1])
			}
		}
		AnalyzeStore(st, EpisodeSpec{})
		var buf bytes.Buffer
		if err := st.WriteDump(jsonl.New(&buf)); err != nil {
			t.Fatal(err)
		}
		if series, spec, err := ReadDump(&buf); err != nil || len(series) != 1 || spec.Util != "test_util" {
			t.Fatalf("dump %d read back as %d series, spec %+v, err %v", i, len(series), spec, err)
		}
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
	st := NewStore(Options{RawCap: 64})
	st.SetEpisodeSpec(EpisodeSpec{Util: "test_util", Threshold: 0.8, Window: 5})
	vec := st.SeriesVec("test_util", "link utilization", "link")
	a := vec.With("a")
	for i := 0; i < 20; i++ {
		a.Sample(int64(i), 0.9)
	}
	st.Series("test_scalar", "").Sample(5, 42)

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
	live := AnalyzeStore(st, EpisodeSpec{})
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
	if got := formatFloat(5); got != "5" {
		t.Fatalf("integral floats must render without exponent: %q", got)
	}
	if got := formatFloat(0.875); got != "0.875" {
		t.Fatalf("fractions must round trip: %q", got)
	}
}
