package netsim

import (
	"math"
	"testing"

	"repro/internal/obs/tsdb"
	"repro/internal/traffic"
)

// TestTSDBOffloadMatchesResults runs the hog-and-returner scenario with a
// TSDB attached and checks the acceptance property end to end: the
// congestion episode is detected, and the offloaded-bits total
// reconstructed from the per-link tsdb series agrees with the per-flow
// accounting in Results. Both sides accumulate the same rate*dt addends
// (advance feeds them in one statement), so the totals may differ only by
// floating-point regrouping across flows vs links.
func TestTSDBOffloadMatchesResults(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 100 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 200 * mb, Arrival: 0.05},
	}
	db := tsdb.NewStore()
	res, err := Run(g, flows, Config{Policy: PolicyMIFO, TSDB: db})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[1].UsedAlt {
		t.Fatal("scenario drifted: flow 1 never deflected")
	}

	rep := tsdb.Analyze(db.Gather(), db.EpisodeSpec())
	if rep.SeriesScanned == 0 {
		t.Fatal("no utilization series registered despite congestion")
	}
	if len(rep.Episodes) == 0 {
		t.Fatal("no congestion episodes detected in a run with deflections")
	}
	if rep.TotalDeflections == 0 {
		t.Fatal("deflection series recorded nothing")
	}

	want := res.OffloadedBits()
	if want == 0 {
		t.Fatal("Results counted no offloaded bits despite UsedAlt")
	}
	if diff := math.Abs(rep.TotalOffloadBits - want); diff > 1e-9*want {
		t.Fatalf("tsdb offload total %.6f != Results offload total %.6f (diff %.3g)",
			rep.TotalOffloadBits, want, diff)
	}

	// The episode on the congested egress must attribute some of that
	// offload: deflections happened because of it.
	attributed := 0.0
	for _, e := range rep.Episodes {
		attributed += e.OffloadBits
	}
	if attributed <= 0 {
		t.Fatalf("episodes attribute no offload: %+v", rep.Episodes)
	}
	if attributed > want*(1+1e-9) {
		t.Fatalf("episodes attribute %.0f bits, more than the run total %.0f", attributed, want)
	}
}

// TestTSDBRunLabelsSeparateRuns: two simulations sharing one store must
// land in disjoint series (distinct run labels), never panic on
// re-registration, and keep per-run totals separate.
func TestTSDBRunLabelsSeparateRuns(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 100 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 200 * mb, Arrival: 0.05},
	}
	db := tsdb.NewStore()
	for i := 0; i < 2; i++ {
		if _, err := Run(g, flows, Config{Policy: PolicyMIFO, TSDB: db}); err != nil {
			t.Fatal(err)
		}
	}
	runs := map[string]bool{}
	for _, sd := range db.Gather() {
		if sd.Name == "netsim_link_util" && len(sd.Values) > 0 {
			runs[sd.Values[0]] = true
		}
	}
	if len(runs) != 2 {
		t.Fatalf("expected 2 distinct run labels, got %v", runs)
	}
}

// TestTSDBKeepsEveryEpoch runs a MIFO hog-and-returner past 2,048
// control epochs, more than a series once held, and checks that the store
// kept all of them: the run-wide series has a point for every epoch from
// the first, one control interval apart, and every link series has a
// point for every epoch from the one that materialized it, the congested
// egress from the first epoch on.
func TestTSDBKeepsEveryEpoch(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 1500 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 1500 * mb, Arrival: 0.05},
	}
	db := tsdb.NewStore()
	cfg := Config{Policy: PolicyMIFO, TSDB: db}
	if _, err := Run(g, flows, cfg); err != nil {
		t.Fatal(err)
	}
	var epochs []tsdb.Point
	var links []tsdb.SeriesDump
	for _, sd := range db.Gather() {
		switch sd.Name {
		case "netsim_active_flows":
			epochs = sd.Points
		case "netsim_link_util", "netsim_link_deflections", "netsim_link_offload_bits":
			links = append(links, sd)
		}
	}
	// The last point is the sample taken after the event loop; the ones
	// before it are the epochs, the first one interval after the first
	// arrival.
	interval := int64(0.005 * 1e9) // the default ControlInterval
	for i, p := range epochs[:max(len(epochs)-1, 0)] {
		if want := int64(i+1) * interval; p.TS < want-1 || p.TS > want+1 {
			t.Fatalf("epoch sample %d at %d ns, want %d: the %d epochs before it are missing", i, p.TS, want, int(p.TS/interval)-1-i)
		}
	}
	if len(epochs)-1 <= 2048 {
		t.Fatalf("scenario drifted: %d epochs, want more than 2,048", len(epochs)-1)
	}
	hot := 0
	for _, sd := range links {
		first := len(epochs) - len(sd.Points)
		if first < 0 || sd.Points[0].TS != epochs[first].TS {
			t.Fatalf("%s%v: %d points from %d ns, not one a sample from the epoch that materialized it on",
				sd.Name, sd.Values, len(sd.Points), sd.Points[0].TS)
		}
		for i, p := range sd.Points {
			if p.TS != epochs[first+i].TS {
				t.Fatalf("%s%v: point %d at %d ns, want %d", sd.Name, sd.Values, i, p.TS, epochs[first+i].TS)
			}
		}
		if first == 0 {
			hot++
		}
	}
	if hot == 0 {
		t.Fatalf("no link series starts at the first epoch among %d", len(links))
	}
}
