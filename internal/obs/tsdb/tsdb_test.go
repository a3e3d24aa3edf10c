package tsdb

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/jsonl"
)

func TestRawRingRoundTrip(t *testing.T) {
	st := NewStore(Options{RawCap: 16, TierCap: 16})
	s := st.Series("test_series", "round trip")
	for i := 0; i < 10; i++ {
		s.Sample(int64(i*100), float64(i))
	}
	pts := s.Raw(nil)
	if len(pts) != 10 {
		t.Fatalf("want 10 points, got %d", len(pts))
	}
	for i, p := range pts {
		if p.TS != int64(i*100) || p.V != float64(i) {
			t.Fatalf("point %d mismatch: %+v", i, p)
		}
	}
	if p, ok := s.Latest(); !ok || p.TS != 900 || p.V != 9 {
		t.Fatalf("latest mismatch: %+v ok=%v", p, ok)
	}
}

func TestTierCascade(t *testing.T) {
	st := NewStore(Options{RawCap: 1024, TierCap: 16})
	s := st.Series("test_tiers", "")
	// 250 points: 25 tier-1 buckets, 2 tier-2 buckets.
	for i := 0; i < 250; i++ {
		s.Sample(int64(i), float64(i%10))
	}
	t1 := s.Tier(1, nil)
	if len(t1) == 0 || len(t1) > 16 {
		t.Fatalf("tier1: want 1..16 buckets, got %d", len(t1))
	}
	for _, b := range t1 {
		if b.Count != tierFanout {
			t.Fatalf("tier1 bucket count: want %d, got %d", tierFanout, b.Count)
		}
		// Each bucket spans 10 consecutive i%10 values: min 0, max 9, sum 45.
		if b.Min != 0 || b.Max != 9 || b.Sum != 45 {
			t.Fatalf("tier1 bucket aggregates wrong: %+v", b)
		}
		if b.End-b.Start != tierFanout-1 {
			t.Fatalf("tier1 bucket span wrong: %+v", b)
		}
	}
	t2 := s.Tier(2, nil)
	if len(t2) != 2 {
		t.Fatalf("tier2: want 2 buckets, got %d", len(t2))
	}
	for _, b := range t2 {
		if b.Count != tierFanout*tierFanout || b.Sum != 450 {
			t.Fatalf("tier2 bucket aggregates wrong: %+v", b)
		}
	}
}

func TestQueryTierCascade(t *testing.T) {
	st := NewStore(Options{RawCap: 16, TierCap: 64})
	s := st.Series("test_query", "")
	const n = 500
	for i := 0; i < n; i++ {
		s.Sample(int64(i), 1)
	}
	// Raw ring only reaches back ~16 points; a query from 0 must cascade
	// to a coarser tier instead of coming back nearly empty.
	got := s.Query(QueryOpts{From: 0, Tier: -1})
	if len(got) == 0 {
		t.Fatal("cascaded query returned nothing")
	}
	if got[0].Start > 100 {
		t.Fatalf("cascade did not reach back: first bucket starts at %d", got[0].Start)
	}
	// Forcing raw honors the request even though it covers less.
	raw := s.Query(QueryOpts{From: 0, Tier: 0})
	if len(raw) == 0 || raw[0].Start <= 100 {
		t.Fatalf("forced raw should only cover the recent window, got start %d over %d buckets", raw[0].Start, len(raw))
	}
}

func TestQueryStepRebucket(t *testing.T) {
	st := NewStore(Options{RawCap: 1024, TierCap: 64})
	s := st.Series("test_step", "")
	for i := 0; i < 100; i++ {
		s.Sample(int64(i), float64(i))
	}
	got := s.Query(QueryOpts{From: 0, To: 99, Step: 25, Tier: 0})
	if len(got) != 4 {
		t.Fatalf("want 4 step buckets, got %d: %+v", len(got), got)
	}
	var total int64
	for i, b := range got {
		if b.Start != int64(i*25) || b.End != int64((i+1)*25) {
			t.Fatalf("bucket %d bounds wrong: %+v", i, b)
		}
		total += b.Count
	}
	if total != 100 {
		t.Fatalf("rebucket lost samples: %d", total)
	}
	if got[0].Min != 0 || got[3].Max != 99 {
		t.Fatalf("rebucket aggregates wrong: %+v", got)
	}
}

func TestSeriesVecLabels(t *testing.T) {
	st := NewStore(Options{RawCap: 16, TierCap: 16})
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
	st := NewStore(Options{RawCap: 64, TierCap: 16})
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
	st := NewStore(Options{RawCap: 64, TierCap: 16})
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
