package netsim

import (
	"testing"

	"repro/internal/topo"
	"repro/internal/traffic"
)

// failGraph: src 3 reaches dst 0 via two same-length provider paths
// (3 -> 1 -> 0 default, 3 -> 2 -> 0 alternative).
func failGraph(t testing.TB) *topo.Graph {
	t.Helper()
	g, err := topo.NewBuilder(4).
		AddPC(0, 1).AddPC(0, 2).AddPC(1, 3).AddPC(2, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMIFOFastFailover(t *testing.T) {
	g := failGraph(t)
	flows := []traffic.Flow{{ID: 0, Src: 3, Dst: 0, SizeBits: 100 * mb, Arrival: 0}}
	res, err := Run(g, flows, Config{
		Policy:   PolicyMIFO,
		Failures: []LinkFailure{{A: 3, B: 1, At: 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.Stalled {
		t.Fatalf("MIFO flow stalled despite an alternative: %+v", f)
	}
	// Data-plane failover is immediate: zero (or epsilon) stall time.
	if f.StalledTime > 0.01 {
		t.Errorf("stalled %v s, want instant deflection", f.StalledTime)
	}
	if !f.UsedAlt || f.Switches == 0 {
		t.Errorf("flow did not deflect: %+v", f)
	}
	// 100 Mb... 800 Mbit at 1 Gbps ~ 0.8 s; failover adds nothing visible.
	if f.Finish > 0.9 {
		t.Errorf("finish = %v, want ~0.8 s", f.Finish)
	}
}

func TestBGPStallsUntilReconvergence(t *testing.T) {
	g := failGraph(t)
	flows := []traffic.Flow{{ID: 0, Src: 3, Dst: 0, SizeBits: 100 * mb, Arrival: 0}}
	res, err := Run(g, flows, Config{
		Policy:             PolicyBGP,
		Failures:           []LinkFailure{{A: 3, B: 1, At: 0.2}},
		ReconvergenceDelay: 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.Stalled {
		t.Fatalf("flow never repaired: %+v", f)
	}
	if f.StalledTime < 1.9 || f.StalledTime > 2.1 {
		t.Errorf("stalled %v s, want ~2 s (the reconvergence delay)", f.StalledTime)
	}
	if f.Reroutes != 1 {
		t.Errorf("reroutes = %d, want 1", f.Reroutes)
	}
	if f.Switches != 0 || f.UsedAlt {
		t.Errorf("BGP repair must not count as a MIFO switch: %+v", f)
	}
	// Total: 0.2 s transfer + 2 s stall + remaining transfer.
	if f.Finish < 2.7 || f.Finish > 3.0 {
		t.Errorf("finish = %v, want ~2.8 s", f.Finish)
	}
}

func TestStalledForeverWhenPartitioned(t *testing.T) {
	// Chain 2 -> 1 -> 0: cutting 1-0 partitions the destination.
	g, err := topo.NewBuilder(3).AddPC(0, 1).AddPC(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	flows := []traffic.Flow{{ID: 0, Src: 2, Dst: 0, SizeBits: 100 * mb, Arrival: 0}}
	res, err := Run(g, flows, Config{
		Policy:             PolicyMIFO,
		Failures:           []LinkFailure{{A: 1, B: 0, At: 0.1}},
		ReconvergenceDelay: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if !f.Stalled {
		t.Fatalf("flow should stall forever across a partition: %+v", f)
	}
	if f.ThroughputBps != 0 {
		t.Errorf("stalled flow reports throughput %v", f.ThroughputBps)
	}
}

func TestRecoveryRestoresService(t *testing.T) {
	g, err := topo.NewBuilder(3).AddPC(0, 1).AddPC(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	flows := []traffic.Flow{{ID: 0, Src: 2, Dst: 0, SizeBits: 100 * mb, Arrival: 0}}
	res, err := Run(g, flows, Config{
		Policy:             PolicyBGP,
		Failures:           []LinkFailure{{A: 1, B: 0, At: 0.1, RecoverAt: 1.0}},
		ReconvergenceDelay: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.Stalled {
		t.Fatalf("flow should resume after recovery: %+v", f)
	}
	// Stalls from 0.1 until recovery (1.0) + reconvergence (0.5) = 1.4 s.
	if f.StalledTime < 1.3 || f.StalledTime > 1.5 {
		t.Errorf("stalled %v s, want ~1.4 s", f.StalledTime)
	}
}

func TestFailureOnUnusedLinkIsHarmless(t *testing.T) {
	g := failGraph(t)
	flows := []traffic.Flow{{ID: 0, Src: 3, Dst: 0, SizeBits: 10 * mb, Arrival: 0}}
	res, err := Run(g, flows, Config{
		Policy:   PolicyBGP,
		Failures: []LinkFailure{{A: 3, B: 2, At: 0.01}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.StalledTime > 0 || f.Stalled || f.Reroutes != 0 {
		t.Errorf("unrelated failure affected the flow: %+v", f)
	}
}

// A failure that names no link of the topology is a configuration error,
// not a run without that failure.
func TestFailureNamingNoLinkIsAnError(t *testing.T) {
	g := failGraph(t)
	flows := []traffic.Flow{{ID: 0, Src: 3, Dst: 0, SizeBits: 10 * mb, Arrival: 0}}
	for name, f := range map[string]LinkFailure{
		"AS out of range":   {A: 9, B: 1, At: 0.01},
		"negative AS":       {A: 1, B: -1, At: 0.01},
		"ASes not adjacent": {A: 1, B: 2, At: 0.01, RecoverAt: 0.02},
	} {
		cfg := Config{Policy: PolicyMIFO, Failures: []LinkFailure{{A: 3, B: 1, At: 0.2}, f}}
		if _, err := Run(g, flows, cfg); err == nil {
			t.Errorf("Run, %s: want an error", name)
		}
		if _, err := Run(g, nil, cfg); err == nil {
			t.Errorf("Run without flows, %s: want an error", name)
		}
		if _, err := RunStream(g, &sliceStream{flows: flows}, []int{0}, 0, cfg); err == nil {
			t.Errorf("RunStream, %s: want an error", name)
		}
	}
}

func TestMIROReconvergesLikeBGP(t *testing.T) {
	g := failGraph(t)
	flows := []traffic.Flow{{ID: 0, Src: 3, Dst: 0, SizeBits: 100 * mb, Arrival: 0}}
	res, err := Run(g, flows, Config{
		Policy:             PolicyMIRO,
		Failures:           []LinkFailure{{A: 3, B: 1, At: 0.2}},
		ReconvergenceDelay: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.Stalled {
		t.Fatalf("%+v", f)
	}
	if f.StalledTime < 0.9 {
		t.Errorf("MIRO stalled only %v s; its multipath is control-plane and should wait for reconvergence", f.StalledTime)
	}
}

func TestFailoverUnderLoadStillLoopFreeAndComplete(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 250, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{N: g.N(), Flows: 400, ArrivalRate: 2000, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Fail three well-connected links mid-run, recover one.
	failures := []LinkFailure{
		{A: 0, B: int(g.Neighbors(0)[0].AS), At: 0.05, RecoverAt: 0.5},
		{A: 1, B: int(g.Neighbors(1)[0].AS), At: 0.1},
		{A: 2, B: int(g.Neighbors(2)[0].AS), At: 0.15},
	}
	res, err := Run(g, flows, Config{
		Policy: PolicyMIFO, Failures: failures, ReconvergenceDelay: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, stalled := 0, 0
	for i := range res.Flows {
		f := &res.Flows[i]
		switch {
		case f.Unroutable:
		case f.Stalled:
			stalled++
		default:
			done++
			if f.ThroughputBps > gbps*(1+1e-9) {
				t.Fatalf("flow %d exceeds capacity", f.ID)
			}
		}
	}
	if done == 0 {
		t.Fatal("no flow completed")
	}
	// The topology is richly connected; only a tiny fraction may stall.
	if stalled > len(flows)/20 {
		t.Errorf("%d of %d flows stalled; failover not working", stalled, len(flows))
	}
}
