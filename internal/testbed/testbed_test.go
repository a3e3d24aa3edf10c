package testbed

import (
	"math"
	"testing"

	"repro/internal/dataplane"
)

func TestBuildWiring(t *testing.T) {
	tb := Build(Config{MIFO: true})
	if got := len(tb.net.Routers); got != 11 {
		t.Fatalf("routers = %d, want 11 (as in the paper's testbed)", got)
	}
	// Rd must have an alternative installed towards Ra (iBGP).
	e, ok := tb.rd.FIB.Lookup(dstPrefix)
	if !ok || e.Alt < 0 || tb.rd.Ports[e.Alt].Kind != dataplane.IBGP || e.AltVia != tb.ra.ID {
		t.Fatalf("Rd FIB entry = %+v, want iBGP alternative via Ra", e)
	}
}

func TestDefaultPathUncongested(t *testing.T) {
	tb := Build(Config{MIFO: true})
	key := dataplane.FlowKey{SrcAddr: 1, DstAddr: dstPrefix, SrcPort: 1, Proto: 6}
	res, path := tb.Probe(key)
	if res.Verdict != dataplane.VerdictDeliver {
		t.Fatalf("probe: %v/%v", res.Verdict, res.Reason)
	}
	want := []int32{1, 3, 4, 5}
	if len(path) != len(want) {
		t.Fatalf("AS path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("AS path = %v, want %v", path, want)
		}
	}
}

func TestDeflectedFlowTravelsViaAS6(t *testing.T) {
	tb := Build(Config{MIFO: true})
	key := dataplane.FlowKey{SrcAddr: 2, DstAddr: dstPrefix, SrcPort: 7, Proto: 6}
	tb.deflected[key] = true
	tb.rd.SetQueueRatio(tb.rdEgressPort, 1.0)
	res, path := tb.Probe(key)
	if res.Verdict != dataplane.VerdictDeliver {
		t.Fatalf("probe: %v/%v", res.Verdict, res.Reason)
	}
	if !viaAlt(path) {
		t.Fatalf("AS path = %v, want via AS 6", path)
	}
	want := []int32{2, 3, 6, 5}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("AS path = %v, want %v", path, want)
		}
	}
	if res.Deflections < 2 {
		t.Errorf("deflections = %d, want Rd encap + Ra bounce-exit", res.Deflections)
	}
}

func TestBGPNeverUsesAlternative(t *testing.T) {
	res, err := Run(Config{MIFO: false, FlowsPerPair: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.AltFlowCount != 0 || res.PathSwitches != 0 {
		t.Fatalf("BGP run used alternatives: alt=%d switches=%d", res.AltFlowCount, res.PathSwitches)
	}
	// Two flows share the 3->4 bottleneck: aggregate == defaultEfficiency.
	if math.Abs(res.MeanAggregateGbps-0.94) > 0.02 {
		t.Errorf("BGP aggregate = %v Gbps, want ~0.94", res.MeanAggregateGbps)
	}
}

func TestMIFOFig12Shape(t *testing.T) {
	bgpRes, err := Run(Config{MIFO: false})
	if err != nil {
		t.Fatal(err)
	}
	mifoRes, err := Run(Config{MIFO: true})
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 12(a): ~0.94 Gbps vs ~1.7 Gbps aggregate, an ~81% improvement.
	if math.Abs(bgpRes.MeanAggregateGbps-0.94) > 0.03 {
		t.Errorf("BGP aggregate = %v, want ~0.94 Gbps", bgpRes.MeanAggregateGbps)
	}
	if mifoRes.MeanAggregateGbps < 1.5 || mifoRes.MeanAggregateGbps > 1.85 {
		t.Errorf("MIFO aggregate = %v, want ~1.7 Gbps", mifoRes.MeanAggregateGbps)
	}
	imp := ImprovementPercent(mifoRes, bgpRes)
	if imp < 60 || imp > 100 {
		t.Errorf("improvement = %v%%, want ~81%%", imp)
	}

	// Fig. 12(b): all MIFO flows within 1.1 s; BGP flows beyond 1.6 s.
	if max := mifoRes.FCT.Max(); max > 1.1 {
		t.Errorf("MIFO max FCT = %v, want <= 1.1 s", max)
	}
	if frac := bgpRes.FCT.FractionAtLeast(1.6); frac < 0.8 {
		t.Errorf("BGP flows >= 1.6s = %v, want >= 0.8", frac)
	}

	// Total completion: ~30 s vs ~51 s.
	if mifoRes.TotalTime > 35 {
		t.Errorf("MIFO total = %v s, want ~30", mifoRes.TotalTime)
	}
	if bgpRes.TotalTime < 45 || bgpRes.TotalTime > 56 {
		t.Errorf("BGP total = %v s, want ~51", bgpRes.TotalTime)
	}

	// MIFO must actually offload flows onto the alternative path.
	if mifoRes.AltFlowCount < 10 {
		t.Errorf("alt flows = %d, want a substantial share of 60", mifoRes.AltFlowCount)
	}
}

func TestAggregateTimeSeriesShape(t *testing.T) {
	res, err := Run(Config{MIFO: true, FlowsPerPair: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggregate.Rows) == 0 {
		t.Fatal("no aggregate samples")
	}
	// During steady state the aggregate must exceed a single link's rate —
	// the whole point of multi-path forwarding.
	peak := 0.0
	for _, r := range res.Aggregate.Rows {
		peak = max(peak, r.Y)
	}
	if peak < 1.2 {
		t.Errorf("peak aggregate = %v Gbps, want > 1.2 (both paths active)", peak)
	}
	for _, r := range res.Aggregate.Rows {
		if r.Y < 0 || r.Y > 2.0 {
			t.Fatalf("aggregate sample %v out of physical range", r)
		}
	}
}

func TestImprovementPercent(t *testing.T) {
	a := &Result{MeanAggregateGbps: 1.7}
	b := &Result{MeanAggregateGbps: 0.94}
	if got := ImprovementPercent(a, b); math.Abs(got-80.85) > 0.1 {
		t.Errorf("improvement = %v, want ~80.85", got)
	}
	if !math.IsInf(ImprovementPercent(a, &Result{}), 1) {
		t.Error("zero baseline should yield +Inf")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.FlowsPerPair != 30 || c.FlowSizeBits != 8e8 {
		t.Errorf("defaults = %+v", c)
	}
}

func BenchmarkTestbedMIFO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{MIFO: true, FlowsPerPair: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
