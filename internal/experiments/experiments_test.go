package experiments

import (
	"strings"
	"testing"
)

// small keeps unit tests fast; the figure-scale defaults run in benches and
// cmd/mifo-sim.
var small = Options{N: 200, Flows: 400, PairSamples: 100, Seed: 7}

func TestTableI(t *testing.T) {
	sum, err := TableI(small)
	if err != nil {
		t.Fatal(err)
	}
	out := sum.String()
	for _, key := range []string{"# of Nodes", "# of Links", "P/C Links", "Peering Links"} {
		if !strings.Contains(out, key) {
			t.Errorf("Table I output missing %q:\n%s", key, out)
		}
	}
	if sum.Get("# of Nodes") != "200" {
		t.Errorf("nodes = %q, want 200", sum.Get("# of Nodes"))
	}
}

func TestDeploymentMask(t *testing.T) {
	if DeploymentMask(100, 1.0, 1) != nil {
		t.Error("full deployment should be nil")
	}
	mask := DeploymentMask(100, 0.3, 1)
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	if n != 30 {
		t.Errorf("capable count = %d, want 30", n)
	}
	// Deterministic per seed.
	mask2 := DeploymentMask(100, 0.3, 1)
	for i := range mask {
		if mask[i] != mask2[i] {
			t.Fatal("mask not deterministic")
		}
	}
}

func TestFig7Ordering(t *testing.T) {
	f, err := RunFig7(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(f.Series))
	}
	// The paper's headline: MIFO offers (vastly) more paths than MIRO.
	if f.MedianMIFO100 <= f.MedianMIRO100 {
		t.Errorf("median paths MIFO=%v should exceed MIRO=%v", f.MedianMIFO100, f.MedianMIRO100)
	}
	// Each complementary series must be non-increasing.
	for _, s := range f.Series {
		for i := 1; i < len(s.Rows); i++ {
			if s.Rows[i].Y > s.Rows[i-1].Y+1e-9 {
				t.Errorf("%s not non-increasing at %d: %v", s.Name, i, s.Rows)
				break
			}
		}
	}
}

func TestFig5FullDeploymentOrdering(t *testing.T) {
	c, err := RunFig5(small, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(c.Series))
	}
	bgp := c.AtLeast500["BGP"]
	mifo := c.AtLeast500["100% Deployed MIFO"]
	if mifo < bgp {
		t.Errorf("MIFO >=500Mbps fraction %v must be >= BGP's %v", mifo, bgp)
	}
	// MIFO must offload something under full deployment.
	if c.Results["100% Deployed MIFO"].OffloadFraction() <= 0 {
		t.Error("MIFO offloaded nothing; congestion never triggered?")
	}
}

func TestFig6PowerLawOrdering(t *testing.T) {
	c, err := RunFig6(small, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	bgp := c.AtLeast500["BGP"]
	miro := c.AtLeast500["50% Deployed MIRO"]
	mifo := c.AtLeast500["50% Deployed MIFO"]
	if mifo < miro || mifo < bgp {
		t.Errorf("ordering violated: MIFO=%v MIRO=%v BGP=%v", mifo, miro, bgp)
	}
}

func TestFig8MonotoneOffload(t *testing.T) {
	f, err := RunFig8(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(f.Rows))
	}
	if f.Rows[0].X != 10 || f.Rows[9].X != 100 {
		t.Errorf("x range = %v..%v", f.Rows[0].X, f.Rows[9].X)
	}
	// Offload must grow with deployment overall (tolerate small local dips
	// from the random masks).
	if f.Rows[9].Y <= f.Rows[0].Y {
		t.Errorf("offload at 100%% (%v) should exceed 10%% (%v)", f.Rows[9].Y, f.Rows[0].Y)
	}
	for _, r := range f.Rows {
		if r.Y < 0 || r.Y > 100 {
			t.Fatalf("offload %v out of range", r)
		}
	}
}

func TestFig9Stability(t *testing.T) {
	f, err := RunFig9(small)
	if err != nil {
		t.Fatal(err)
	}
	if f.Histogram.Total() == 0 {
		t.Fatal("no flow ever switched; workload too light for Fig. 9")
	}
	// The paper's stability claim: switching is dominated by 1-2 switches.
	if f.OnceFraction < 0.3 {
		t.Errorf("once fraction = %v, want the mode at one switch", f.OnceFraction)
	}
	if f.AtMostTwiceFraction < f.OnceFraction {
		t.Error("cumulative fraction cannot decrease")
	}
	if f.AtMostTwiceFraction < 0.6 {
		t.Errorf("at-most-twice = %v, want stability-dominated distribution", f.AtMostTwiceFraction)
	}
	// A flow's first switch is a deflection, so both histograms count
	// the same flows; returns only add to the switch counts.
	if f.Switches.Total() != f.Histogram.Total() || f.SwitchesOnceFraction > f.OnceFraction {
		t.Errorf("switches over %d flows (once %v), deflections over %d (once %v)",
			f.Switches.Total(), f.SwitchesOnceFraction, f.Histogram.Total(), f.OnceFraction)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.N != 1000 || o.Flows != 5000 || o.PairSamples != 1000 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestComplementaryEmpty(t *testing.T) {
	s := complementary("x", nil)
	if len(s.Rows) != 0 {
		t.Error("empty input should produce empty series")
	}
	if median(nil) != 0 {
		t.Error("median of empty should be 0")
	}
}
