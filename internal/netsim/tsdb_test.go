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
	db := tsdb.NewStore(tsdb.Options{})
	res, err := Run(g, flows, Config{Policy: PolicyMIFO, TSDB: db})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[1].UsedAlt {
		t.Fatal("scenario drifted: flow 1 never deflected")
	}

	rep := tsdb.AnalyzeStore(db, tsdb.EpisodeSpec{})
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
	db := tsdb.NewStore(tsdb.Options{})
	for i := 0; i < 2; i++ {
		if _, err := Run(g, flows, Config{Policy: PolicyMIFO, TSDB: db}); err != nil {
			t.Fatal(err)
		}
	}
	runs := map[string]bool{}
	for _, sd := range db.Gather("netsim_link_util") {
		if len(sd.Values) > 0 {
			runs[sd.Values[0]] = true
		}
	}
	if len(runs) != 2 {
		t.Fatalf("expected 2 distinct run labels, got %v", runs)
	}
}
