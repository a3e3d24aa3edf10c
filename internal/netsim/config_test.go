package netsim

import (
	"testing"

	"repro/internal/topo"
	"repro/internal/traffic"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.LinkCapacityBps != 1e9 || c.CongestionThreshold != 0.95 ||
		c.ReturnThreshold != 0.3 || c.ControlInterval != 0.005 ||
		c.MaxSwitches != 16 || c.ReconvergenceDelay != 5 {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{LinkCapacityBps: 5, MaxSwitches: 3}.withDefaults()
	if c2.LinkCapacityBps != 5 || c2.MaxSwitches != 3 {
		t.Errorf("overrides lost: %+v", c2)
	}
}

func TestMaxSwitchesHonored(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 250, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{N: g.N(), Flows: 600, ArrivalRate: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIFO, MaxSwitches: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		// A flow may reach the cap and perform at most one final switch
		// already in flight; it must never exceed cap + 1.
		if f.Switches > 3 {
			t.Fatalf("flow %d switched %d times with MaxSwitches=2", f.ID, f.Switches)
		}
	}
}

func TestQualityFirstStillHelps(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0.001},
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIFO, Quality: QualityFirst})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[1].UsedAlt {
		t.Fatal("route-preference quality should still deflect the contending flow")
	}
	if res.Flows[1].ThroughputBps < 0.9e9 {
		t.Errorf("deflected flow got %v bps", res.Flows[1].ThroughputBps)
	}
}

func TestCompletionCDF(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 2, Dst: 0, SizeBits: 10 * mb, Arrival: 1},
	}
	res, err := Run(g, flows, Config{Policy: PolicyBGP})
	if err != nil {
		t.Fatal(err)
	}
	cdf := res.CompletionCDF()
	if cdf.N() != 2 {
		t.Fatalf("FCT samples = %d", cdf.N())
	}
	// Disjoint flows: both complete in exactly 0.08 s.
	if cdf.Max() > 0.081 || cdf.Min() < 0.079 {
		t.Errorf("FCTs = [%v, %v], want ~0.08", cdf.Min(), cdf.Max())
	}
}
