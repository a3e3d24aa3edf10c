package topo_test

import (
	"bytes"
	"testing"

	"repro/internal/bgp"
	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestGraphFrozenAcrossConsumers holds every package that reads a Graph
// through its accessors to the rule the accessors' doc comments state:
// the slices alias the graph's arena and must not be written. It takes
// the graph's fingerprint, drives each consumer over the graph — the
// route table through a link failure and its repair, the flow simulator
// under all three policies with a failure, the router-level deployment
// through install and a control epoch, the message-level BGP simulator
// and the topo package's own readers — and requires the same fingerprint
// after each of them. A consumer that sorted, wrote or appended through an
// accessor's slice in place would change it.
func TestGraphFrozenAcrossConsumers(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := topo.Fingerprint(g)
	frozen := func(after string) {
		t.Helper()
		if got := topo.Fingerprint(g); got != want {
			t.Fatalf("after %s the graph's arrays changed (fingerprint %#x, want %#x)", after, got, want)
		}
	}

	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	peer := int(g.Neighbors(hub)[0].AS)
	dsts := make([]int, 0, g.N())
	for v := 0; v < g.N(); v++ {
		dsts = append(dsts, v)
	}

	tab := bgp.NewTable(g, dsts, 2)
	tab.LinkDown(hub, peer)
	if tab.Graph() == g {
		t.Fatal("a table with a failed link reports the intact graph")
	}
	for _, d := range []int{0, hub, peer} {
		bgp.RIB(g, tab.Dest(d), peer)
		bgp.CountForwardingPaths(g, tab.Dest(d), hub, nil)
	}
	tab.LinkUp(hub, peer)
	frozen("bgp.Table LinkDown/LinkUp")

	flows, err := traffic.Uniform(traffic.UniformConfig{N: g.N(), Flows: 300, ArrivalRate: 1500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	horizon := flows[len(flows)-1].Arrival
	tr := span.New(span.Options{})
	defer tr.Close()
	for _, pol := range []netsim.Policy{netsim.PolicyBGP, netsim.PolicyMIRO, netsim.PolicyMIFO} {
		cfg := netsim.Config{
			Policy:             pol,
			Failures:           []netsim.LinkFailure{{A: hub, B: peer, At: horizon / 4, RecoverAt: horizon / 2}},
			ReconvergenceDelay: horizon / 16,
			Spans:              tr,
			TSDB:               tsdb.NewStore(tsdb.Options{}),
		}
		if _, err := netsim.Run(g, flows, cfg); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		frozen("netsim.Run under " + pol.String())
	}

	dep := core.NewDeployment(g, core.Config{ExpandASes: []int{hub}})
	dep.InstallDestinations(tab.All())
	for _, nb := range g.Neighbors(hub) {
		if err := dep.SetLinkLoad(hub, int(nb.AS), 9e8); err != nil {
			t.Fatal(err)
		}
	}
	tables := dep.Tables()
	for v := 0; v < g.N(); v++ {
		if dm := dep.Daemon(v); dm != nil {
			dm.RefreshAll(tables)
		}
	}
	frozen("core install and RefreshAll")

	sim := bgpsim.New(g, hub, bgpsim.Config{})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	frozen("bgpsim")

	g.Stats()
	topo.CustomerCone(g, hub)
	topo.SamplePathStats(g, 50, 1)
	var buf bytes.Buffer
	if err := topo.Write(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.WriteDOT(&buf, g, "frozen"); err != nil {
		t.Fatal(err)
	}
	frozen("topo Stats, Write and WriteDOT")
}
