package testbed

import (
	"testing"

	"repro/internal/packetsim"
)

// Packet-level cross-validation of the fluid testbed model: smaller flows
// (2 MB) keep the event count test-friendly; the qualitative Fig. 12
// results must match — BGP capped by the shared bottleneck, MIFO well
// above it thanks to queue-driven deflection through Ra.
func TestPacketLevelCrossValidation(t *testing.T) {
	cfg := Config{FlowsPerPair: 4, FlowSizeBits: 2 * 8e6}

	cfg.MIFO = false
	bgpRes, err := RunPacketLevel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MIFO = true
	mifoRes, err := RunPacketLevel(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, res := range []*packetsim.Results{bgpRes, mifoRes} {
		for _, f := range res.Flows {
			if f.Aborted {
				t.Fatalf("flow aborted: %+v", f)
			}
			if f.DeliveredPkts == 0 {
				t.Fatalf("flow delivered nothing: %+v", f)
			}
		}
	}

	// BGP: both sequences share the 3->4 link; aggregate near (but not
	// above) one link's goodput.
	if bgpRes.MeanAggregateGbps > 0.96 || bgpRes.MeanAggregateGbps < 0.70 {
		t.Errorf("BGP packet-level aggregate = %v Gbps, want ~0.9", bgpRes.MeanAggregateGbps)
	}
	// MIFO must exceed a single link's capacity — only possible by using
	// the alternative path through AS 6.
	if mifoRes.MeanAggregateGbps < 1.1 {
		t.Errorf("MIFO packet-level aggregate = %v Gbps, want > 1.1", mifoRes.MeanAggregateGbps)
	}
	deflected := 0
	for _, f := range mifoRes.Flows {
		deflected += f.DeflectedPkts
	}
	if deflected == 0 {
		t.Error("no packet ever took the alternative path under MIFO")
	}
	// And it must beat BGP clearly (the paper reports +81% at full scale).
	if mifoRes.MeanAggregateGbps < 1.2*bgpRes.MeanAggregateGbps {
		t.Errorf("MIFO %v vs BGP %v: improvement too small",
			mifoRes.MeanAggregateGbps, bgpRes.MeanAggregateGbps)
	}
	// Fluid and packet models must agree on the BGP baseline within ~10%.
	fluid, err := Run(Config{MIFO: false, FlowsPerPair: 4, FlowSizeBits: 2 * 8e6})
	if err != nil {
		t.Fatal(err)
	}
	ratio := bgpRes.MeanAggregateGbps / fluid.MeanAggregateGbps
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("packet/fluid BGP aggregate ratio = %v, want within 15%%", ratio)
	}
}
