package experiments

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/topo"
)

func TestRunPaperScaleFlows(t *testing.T) {
	o := Options{N: 300, Flows: 500, Seed: 3}
	r, err := RunPaperScale(o, PaperScaleConfig{Dests: 8, StreamFlows: 400, MemBudgetMB: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if r.TableOnly {
		t.Fatal("flow mode reported TableOnly")
	}
	if r.Nodes != 300 {
		t.Fatalf("nodes = %d, want 300", r.Nodes)
	}
	if r.Dests != 8 {
		t.Fatalf("dests = %d, want 8", r.Dests)
	}
	if r.Stream == nil || r.Stream.Flows != 400 {
		t.Fatalf("stream did not pull 400 flows: %+v", r.Stream)
	}
	if r.Stream.PeakFlowSlots > r.Stream.PeakActive+1 {
		t.Fatalf("flow slots not bounded: %d slots for %d active", r.Stream.PeakFlowSlots, r.Stream.PeakActive)
	}
	if r.Routing.LinkEvents < 2 {
		t.Fatalf("link events = %d, want the failure and the recovery", r.Routing.LinkEvents)
	}
	if r.TableMem.Dests != 8 || r.TableMem.BytesPerEntry <= 0 {
		t.Fatalf("table memory accounting: %+v", r.TableMem)
	}
	if r.PeakRSS <= 0 || r.RSSSource == "" {
		t.Fatalf("peak RSS not read: %d via %q", r.PeakRSS, r.RSSSource)
	}
	if r.OverBudget {
		t.Fatalf("a 300-AS run cannot exceed 4 GiB (peak %d bytes)", r.PeakRSS)
	}
}

func TestRunPaperScaleTableOnly(t *testing.T) {
	o := Options{N: 250, Seed: 5}
	r, err := RunPaperScale(o, PaperScaleConfig{AllDests: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TableOnly {
		t.Fatal("AllDests did not select table-only mode")
	}
	if r.Dests != 250 || r.TableMem.Dests != 250 {
		t.Fatalf("dests = %d / %d, want 250", r.Dests, r.TableMem.Dests)
	}
	if r.Routing.FullComputes != 250 {
		t.Fatalf("full computes = %d, want 250", r.Routing.FullComputes)
	}
	if r.Routing.LinkEvents != 2 {
		t.Fatalf("link events = %d, want 2", r.Routing.LinkEvents)
	}
	// The LinkUp restores exactly what the LinkDown recomputed.
	if rt := r.Routing; rt.IncrementalComputes == 0 || rt.Restored != rt.IncrementalComputes || rt.IncrementalComputes+rt.Restored+rt.CleanSkipped != 2*250 {
		t.Fatalf("incremental accounting: %+v", r.Routing)
	}
	if r.Stream != nil {
		t.Fatal("table-only mode must not run the flow simulator")
	}
	if r.BudgetBytes != 0 || r.OverBudget {
		t.Fatalf("no budget was set: %+v", r)
	}
}

// TestPaperScaleFlapRestoresTables: after the table-only flap every table
// is the one the build made, not a recomputed copy.
func TestPaperScaleFlapRestoresTables(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 250, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dsts := make([]int, g.N())
	for i := range dsts {
		dsts[i] = i
	}
	tab := bgp.NewTable(g, dsts, 0)
	intact := tab.Clone()
	a, b := hubLink(g)
	r := &PaperScale{FailedLink: [2]int{a, b}}
	r.flap(tab)
	if r.Routing.IncrementalComputes == 0 {
		t.Fatalf("LinkDown(%d, %d) recomputed nothing", a, b)
	}
	for _, d := range intact.All() {
		if tab.Dest(d.Dst()) != d {
			t.Fatalf("after recovery destination %d does not share the built table", d.Dst())
		}
	}
}

func TestRunPaperScaleGraphOverride(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunPaperScale(Options{N: g.N(), Graph: g, Flows: 100}, PaperScaleConfig{Dests: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 120 || r.Links != g.Links() {
		t.Fatalf("override graph not used: %d nodes, %d links", r.Nodes, r.Links)
	}
}
