package netsim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/topo"
	"repro/internal/traffic"
)

const (
	mb   = 8e6 // bits
	gbps = 1e9 // bits/s
)

// fig2aGraph: AS 0 customer of 1, 2, 3; the latter peer in a triangle.
func fig2aGraph(t testing.TB) *topo.Graph {
	t.Helper()
	g, err := topo.NewBuilder(4).
		AddPC(1, 0).AddPC(2, 0).AddPC(3, 0).
		AddPeer(1, 2).AddPeer(2, 3).AddPeer(1, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// diamond: dst 0 provides 1 and 2; both provide src 3. Two same-class paths.
func diamond(t testing.TB) *topo.Graph {
	t.Helper()
	g, err := topo.NewBuilder(4).
		AddPC(0, 1).AddPC(0, 2).AddPC(1, 3).AddPC(2, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestSingleFlowFullRate(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0}}
	res, err := Run(g, flows, Config{Policy: PolicyBGP})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "finish", res.Flows[0].Finish, 0.08, 1e-9)
	approx(t, "throughput", res.Flows[0].ThroughputBps, gbps, 1)
	if res.Flows[0].Switches != 0 || res.Flows[0].UsedAlt {
		t.Error("BGP flow must not switch paths")
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
	}
	res, err := Run(g, flows, Config{Policy: PolicyBGP})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		approx(t, "finish", res.Flows[i].Finish, 0.16, 1e-9)
		approx(t, "throughput", res.Flows[i].ThroughputBps, gbps/2, 1)
	}
}

func TestStaggeredArrivalsMaxMin(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0.04},
	}
	res, err := Run(g, flows, Config{Policy: PolicyBGP})
	if err != nil {
		t.Fatal(err)
	}
	// Flow 0: 0.04s at 1G (40 Mb), then shares at 0.5G: 40 Mb left -> done 0.12.
	approx(t, "flow0 finish", res.Flows[0].Finish, 0.12, 1e-9)
	// Flow 1: 0.5G until 0.12 (40 Mb), then 1G: done at 0.16.
	approx(t, "flow1 finish", res.Flows[1].Finish, 0.16, 1e-9)
}

func TestMIFODeflectsSecondFlow(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0.001},
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIFO})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[1].UsedAlt {
		t.Fatal("second flow should have been deflected to the peer path")
	}
	// Both flows get the full link rate on disjoint paths.
	approx(t, "flow0 throughput", res.Flows[0].ThroughputBps, gbps, 1e6)
	approx(t, "flow1 throughput", res.Flows[1].ThroughputBps, gbps, 1e6)
	if res.OffloadFraction() != 0.5 {
		t.Errorf("offload = %v, want 0.5", res.OffloadFraction())
	}
}

func TestMIFOBeatsBGPUnderContention(t *testing.T) {
	g := fig2aGraph(t)
	var flows []traffic.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, traffic.Flow{
			ID: i, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: float64(i) * 0.001,
		})
	}
	bgpRes, err := Run(g, flows, Config{Policy: PolicyBGP})
	if err != nil {
		t.Fatal(err)
	}
	mifoRes, err := Run(g, flows, Config{Policy: PolicyMIFO})
	if err != nil {
		t.Fatal(err)
	}
	if mifoRes.MeanThroughputMbps() <= bgpRes.MeanThroughputMbps() {
		t.Errorf("MIFO mean %v Mbps should beat BGP %v Mbps",
			mifoRes.MeanThroughputMbps(), bgpRes.MeanThroughputMbps())
	}
}

func TestMIFOSwitchBack(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 100 * mb, Arrival: 0},    // hog, done at 0.8
		{ID: 1, Src: 1, Dst: 0, SizeBits: 200 * mb, Arrival: 0.05}, // deflected, then returns
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIFO})
	if err != nil {
		t.Fatal(err)
	}
	f1 := res.Flows[1]
	if !f1.UsedAlt {
		t.Fatal("flow 1 should have deflected")
	}
	if f1.Switches != 2 {
		t.Errorf("flow 1 switches = %d, want 2 (deflect + return)", f1.Switches)
	}
	h := res.SwitchHistogram()
	if h.Count(2) != 1 || h.Total() != 1 {
		t.Errorf("switch histogram = %v", h)
	}
}

func TestMIFOZeroDeploymentEqualsBGP(t *testing.T) {
	g := fig2aGraph(t)
	capable := make([]bool, g.N())
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0.001},
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIFO, Capable: capable})
	if err != nil {
		t.Fatal(err)
	}
	if res.OffloadFraction() != 0 {
		t.Error("no AS is capable; nothing may deflect")
	}
	bgpRes, _ := Run(g, flows, Config{Policy: PolicyBGP})
	for i := range res.Flows {
		approx(t, "throughput parity", res.Flows[i].ThroughputBps, bgpRes.Flows[i].ThroughputBps, 1)
	}
}

func TestMIROChoosesWiderAlternate(t *testing.T) {
	g := diamond(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 3, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 3, Dst: 0, SizeBits: 10 * mb, Arrival: 0.001},
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIRO})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[1].UsedAlt {
		t.Fatal("MIRO should move the second flow to the same-class alternate")
	}
	approx(t, "flow0 throughput", res.Flows[0].ThroughputBps, gbps, 1e6)
	approx(t, "flow1 throughput", res.Flows[1].ThroughputBps, gbps, 1e6)
}

func TestMIRONeverSwitchesMidFlow(t *testing.T) {
	g := diamond(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 3, Dst: 0, SizeBits: 100 * mb, Arrival: 0},
		{ID: 1, Src: 3, Dst: 0, SizeBits: 100 * mb, Arrival: 0.01},
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIRO})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if f.Switches > 1 {
			t.Errorf("flow %d switched %d times; MIRO picks once at arrival", f.ID, f.Switches)
		}
	}
}

func TestMIFOStrictlyBeatsMIROOnPeerAlternatives(t *testing.T) {
	// In fig2a the alternatives are peer routes while the default is a
	// customer route: MIRO's strict same-class policy cannot use them, MIFO
	// can. This is the paper's core qualitative difference.
	g := fig2aGraph(t)
	var flows []traffic.Flow
	for i := 0; i < 6; i++ {
		flows = append(flows, traffic.Flow{
			ID: i, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: float64(i) * 0.002,
		})
	}
	miroRes, err := Run(g, flows, Config{Policy: PolicyMIRO})
	if err != nil {
		t.Fatal(err)
	}
	mifoRes, err := Run(g, flows, Config{Policy: PolicyMIFO})
	if err != nil {
		t.Fatal(err)
	}
	if miroRes.OffloadFraction() != 0 {
		t.Errorf("MIRO offload = %v, want 0 (no same-class alternatives)", miroRes.OffloadFraction())
	}
	if mifoRes.MeanThroughputMbps() <= miroRes.MeanThroughputMbps() {
		t.Errorf("MIFO %v Mbps should beat MIRO %v Mbps",
			mifoRes.MeanThroughputMbps(), miroRes.MeanThroughputMbps())
	}
}

func TestUnroutableFlow(t *testing.T) {
	g, err := topo.NewBuilder(4).AddPC(0, 1).AddPC(2, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 2, Dst: 0, SizeBits: 10 * mb, Arrival: 0}, // no route
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIFO})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[1].Unroutable || res.Flows[1].ThroughputBps != 0 {
		t.Errorf("flow 1 = %+v, want unroutable", res.Flows[1])
	}
	if res.Flows[0].Unroutable || res.Flows[0].ThroughputBps != gbps {
		t.Errorf("flow 0 = %+v, want full rate", res.Flows[0])
	}
	if res.Routable() != 1 {
		t.Errorf("routable = %d, want 1", res.Routable())
	}
}

func TestRunValidation(t *testing.T) {
	g := fig2aGraph(t)
	if _, err := Run(g, []traffic.Flow{{Src: 1, Dst: 1, SizeBits: mb}}, Config{}); err == nil {
		t.Error("src == dst must error")
	}
	if _, err := Run(g, []traffic.Flow{{Src: 1, Dst: 99, SizeBits: mb}}, Config{}); err == nil {
		t.Error("out-of-range dst must error")
	}
	res, err := Run(g, nil, Config{Policy: PolicyMIFO})
	if err != nil || len(res.Flows) != 0 {
		t.Error("empty flow set should return empty results")
	}
	if res.Policy != PolicyMIFO || res.Capacity != gbps {
		t.Errorf("empty run reports policy %v capacity %v, want MIFO and the default capacity", res.Policy, res.Capacity)
	}
}

// A flow whose size or arrival time is not a usable number is rejected by
// name, through both entry points. (traffic.ReadCSV parses "NaN" and "Inf"
// happily; before the check a NaN stalled other, valid flows, an infinite
// size never returned and a negative one finished before it arrived.)
func TestRunRejectsUnusableSizeAndArrival(t *testing.T) {
	g := fig2aGraph(t)
	good := traffic.Flow{ID: 1, Src: 1, Dst: 0, SizeBits: 100 * mb, Arrival: 0.001}
	nan, inf := math.NaN(), math.Inf(1)
	for name, bad := range map[string]traffic.Flow{
		"NaN size":         {SizeBits: nan, Arrival: 0.002},
		"+Inf size":        {SizeBits: inf, Arrival: 0.002},
		"-Inf size":        {SizeBits: -inf, Arrival: 0.002},
		"zero size":        {SizeBits: 0, Arrival: 0.002},
		"negative size":    {SizeBits: -mb, Arrival: 0.002},
		"NaN arrival":      {SizeBits: mb, Arrival: nan},
		"+Inf arrival":     {SizeBits: mb, Arrival: inf},
		"negative arrival": {SizeBits: mb, Arrival: -1},
	} {
		bad.ID, bad.Src, bad.Dst = 7, 2, 0
		flows := []traffic.Flow{good, bad}
		if bad.Arrival < good.Arrival {
			flows = []traffic.Flow{bad, good} // RunStream wants arrival order
		}
		_, runErr := Run(g, []traffic.Flow{good, bad}, Config{Policy: PolicyMIFO})
		_, streamErr := RunStream(g, &sliceStream{flows: flows}, []int{0}, 0, Config{Policy: PolicyMIFO})
		for entry, err := range map[string]error{"Run": runErr, "RunStream": streamErr} {
			if err == nil || !strings.Contains(err.Error(), "flow 7 ") {
				t.Errorf("%s, %s: error %v, want one naming flow 7", name, entry, err)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{N: g.N(), Flows: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(g, flows, Config{Policy: PolicyMIFO})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, flows, Config{Policy: PolicyMIFO})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs across identical runs:\n%+v\n%+v", i, a.Flows[i], b.Flows[i])
		}
	}
}

// Physical sanity on a random workload, for each policy: every routable
// flow completes after its arrival, at no more than link rate, and the
// conservation of bytes holds (throughput * duration == size).
func TestPhysicalInvariants(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{N: g.N(), Flows: 500, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{PolicyBGP, PolicyMIRO, PolicyMIFO} {
		res, err := Run(g, flows, Config{Policy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for i := range res.Flows {
			f := &res.Flows[i]
			if f.Unroutable {
				continue
			}
			if f.Finish <= f.Arrival {
				t.Fatalf("%v flow %d: finish %v <= arrival %v", pol, f.ID, f.Finish, f.Arrival)
			}
			if f.ThroughputBps > gbps*(1+1e-9) {
				t.Fatalf("%v flow %d: throughput %v exceeds capacity", pol, f.ID, f.ThroughputBps)
			}
			dur := f.Finish - f.Arrival
			if math.Abs(f.ThroughputBps*dur-f.SizeBits) > 1 {
				t.Fatalf("%v flow %d: conservation violated", pol, f.ID)
			}
			if pol == PolicyBGP && (f.Switches != 0 || f.UsedAlt) {
				t.Fatalf("BGP flow %d switched", f.ID)
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyBGP.String() != "BGP" || PolicyMIRO.String() != "MIRO" ||
		PolicyMIFO.String() != "MIFO" || Policy(9).String() != "Policy(9)" {
		t.Error("Policy.String wrong")
	}
}

func BenchmarkRunMIFO(b *testing.B) {
	g, err := topo.Generate(topo.GenConfig{N: 500, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{N: g.N(), Flows: 1000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, flows, Config{Policy: PolicyMIFO}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunBGP(b *testing.B) {
	g, err := topo.Generate(topo.GenConfig{N: 500, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{N: g.N(), Flows: 1000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, flows, Config{Policy: PolicyBGP}); err != nil {
			b.Fatal(err)
		}
	}
}
