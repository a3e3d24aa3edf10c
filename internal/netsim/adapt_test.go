package netsim

import (
	"slices"
	"testing"

	"repro/internal/bgp"
	"repro/internal/topo"
)

// requireExportersMatchRIB fails unless exporters, read for AS u from
// table, name bgp.RIBInto's entries for (u, table's destination) in its
// order.
func requireExportersMatchRIB(t *testing.T, g *topo.Graph, table *bgp.Dest, u int, exporters []int32) {
	t.Helper()
	rib := bgp.RIBInto(g, table, u, nil)
	nbs := g.Neighbors(u)
	if len(exporters) != len(rib) {
		t.Fatalf("AS %d: memo holds %d exporters, RIB %d entries", u, len(exporters), len(rib))
	}
	for k, x := range exporters {
		if via := nbs[x].AS; via != rib[k].Via {
			t.Fatalf("AS %d: memo entry %d is neighbour %d, RIB entry %d is via %d", u, k, via, k, rib[k].Via)
		}
	}
}

// TestExporterMemoMatchesRIB runs MIFO on goldenInput (every third AS not
// capable, a hub link that fails and recovers) and checks every memo read
// against a fresh RIB.
func TestExporterMemoMatchesRIB(t *testing.T) {
	g, flows, cfg := goldenInput(t)
	cfg.Policy = PolicyMIFO
	reads := 0
	memoRead = func(table *bgp.Dest, u int, exporters []int32) {
		reads++
		requireExportersMatchRIB(t, g, table, u, exporters)
	}
	defer func() { memoRead = nil }()
	if _, err := Run(g, flows, cfg); err != nil {
		t.Fatal(err)
	}
	if reads == 0 {
		t.Fatal("the run read no memo; the input no longer exercises deflection")
	}
}

// TestExporterMemoRemines hands one flow's memo two tables in turn: a read
// with a table the memo was not mined from must mine it again.
func TestExporterMemoRemines(t *testing.T) {
	g, _, _ := goldenInput(t)
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	// Two destinations whose RIBs at the hub name different neighbours.
	var a, b *bgp.Dest
	var aRIB []bgp.Alt
	sameVias := func(x, y bgp.Alt) bool { return x.Via == y.Via }
	for dst := 0; dst < g.N() && b == nil; dst++ {
		if dst == hub {
			continue
		}
		d := bgp.Compute(g, dst)
		switch rib := bgp.RIBInto(g, d, hub, nil); {
		case len(rib) == 0:
		case a == nil:
			a, aRIB = d, rib
		case !slices.EqualFunc(rib, aRIB, sameVias):
			b = d
		}
	}
	if b == nil {
		t.Fatal("no two destinations with different RIBs at the hub")
	}
	s := &Sim{g: g}
	st := &flowState{path: []int{int(g.Neighbors(hub)[0].AS), hub, 0}}
	for _, d := range []*bgp.Dest{a, b, a} {
		requireExportersMatchRIB(t, g, d, hub, s.exporters(st, d, 1))
		requireExportersMatchRIB(t, g, d, hub, s.exporters(st, d, 1)) // the memoized read
	}
}
