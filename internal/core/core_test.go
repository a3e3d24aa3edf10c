package core

import (
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/dataplane"
	"repro/internal/topo"
)

// fig2aGraph: AS 0 is a customer of 1, 2, 3, which peer in a triangle.
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

func TestDeploymentWiring(t *testing.T) {
	g := fig2aGraph(t)
	d := NewDeployment(g, Config{})
	if got := len(d.Net.Routers); got != 4 {
		t.Fatalf("routers = %d, want 4 (one per AS)", got)
	}
	r, port, err := d.EgressPort(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.AS != 1 || r.Ports[port].PeerAS != 0 || r.Ports[port].Rel != topo.Customer {
		t.Errorf("egress 1->0: AS=%d peerAS=%d rel=%v", r.AS, r.Ports[port].PeerAS, r.Ports[port].Rel)
	}
	if _, _, err := d.EgressPort(0, 2); err != nil {
		t.Error("egress 0->2 should exist")
	}
	if _, _, err := d.EgressPort(1, 99); err == nil {
		t.Error("nonexistent link should error")
	}
}

func TestInstallAndDefaultForwarding(t *testing.T) {
	g := fig2aGraph(t)
	d := NewDeployment(g, Config{})
	d.InstallDestination(bgp.Compute(g, 0))
	for src := 1; src <= 3; src++ {
		res := d.Send(dataplane.FlowKey{SrcAddr: uint32(src), DstAddr: 0}, src, 0)
		if res.Verdict != dataplane.VerdictDeliver {
			t.Fatalf("src %d: %v/%v", src, res.Verdict, res.Reason)
		}
		if len(res.Hops) != 2 {
			t.Errorf("src %d: hops = %d, want direct", src, len(res.Hops))
		}
	}
}

func TestDeflectionEndToEnd(t *testing.T) {
	g := fig2aGraph(t)
	d := NewDeployment(g, Config{})
	table := bgp.Compute(g, 0)
	d.InstallDestination(table)
	// Congest AS 1's default link to 0; the daemon installs the peer
	// alternative (via AS 2, the lowest tie-break).
	if err := d.SetLinkLoad(1, 0, 1e9); err != nil {
		t.Fatal(err)
	}
	d.Refresh()
	res := d.Send(dataplane.FlowKey{SrcAddr: 1, DstAddr: 0}, 1, 0)
	if res.Verdict != dataplane.VerdictDeliver {
		t.Fatalf("verdict = %v/%v", res.Verdict, res.Reason)
	}
	asPath := res.ASPath(d.Net)
	if len(asPath) != 3 || asPath[0] != 1 || asPath[1] != 2 || asPath[2] != 0 {
		t.Errorf("AS path = %v, want [1 2 0]", asPath)
	}
	if res.Deflections != 1 {
		t.Errorf("deflections = %d, want 1", res.Deflections)
	}
}

func TestFig2cGreedySelection(t *testing.T) {
	// AS 0 (X) is a customer of 1, 2, 3; destination 4 is a customer of
	// 1, 2, 3. X's default is via 1; alternatives via 2 and 3. The link
	// X->3 has more spare capacity, so the daemon must pick 3 even though
	// 2 wins the route-preference tie-break.
	b := topo.NewBuilder(5)
	b.AddPC(1, 0).AddPC(2, 0).AddPC(3, 0)
	b.AddPC(1, 4).AddPC(2, 4).AddPC(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Expand AS 0 to one router per link, full-mesh iBGP — the Fig. 2(c)
	// situation where alternatives live on different border routers.
	d := NewDeployment(g, Config{ExpandASes: []int{0}})
	if got := len(d.Routers(0)); got != 3 {
		t.Fatalf("AS 0 routers = %d, want 3", got)
	}
	table := bgp.Compute(g, 4)
	if table.NextHop(0) != 1 {
		t.Fatalf("default next hop = %d, want 1", table.NextHop(0))
	}
	d.InstallDestination(table)

	// Spare: X->2 has 10 Mbps left, X->3 has 100 Mbps left.
	if err := d.SetLinkLoad(0, 2, 1e9-10e6); err != nil {
		t.Fatal(err)
	}
	if err := d.SetLinkLoad(0, 3, 1e9-100e6); err != nil {
		t.Fatal(err)
	}
	sel, ok := d.Daemon(0).SelectAlternative(table)
	if !ok {
		t.Fatal("no alternative selected")
	}
	if sel.Alt.Via != 3 {
		t.Errorf("selected via %d, want 3 (most spare capacity)", sel.Alt.Via)
	}
	if sel.SpareBps != 100e6 {
		t.Errorf("spare = %v, want 100e6", sel.SpareBps)
	}

	// Install and verify the FIBs: the owner router points at its eBGP
	// port, siblings at their iBGP port towards the owner.
	d.Refresh()
	owner := d.Net.Router(sel.Router)
	e, ok := owner.FIB.Lookup(4)
	if !ok || e.Alt != sel.Port {
		t.Errorf("owner alt = %+v, want eBGP port %d", e, sel.Port)
	}
	for _, r := range d.Routers(0) {
		if r.ID == sel.Router {
			continue
		}
		e, ok := r.FIB.Lookup(4)
		if !ok || e.Alt < 0 || r.Ports[e.Alt].Kind != dataplane.IBGP || e.AltVia != sel.Router {
			t.Errorf("sibling %d alt = %+v, want iBGP towards owner %d", r.ID, e, sel.Router)
		}
	}

	// Tie-break check: with equal spare everywhere the daemon falls back
	// to route preference (lowest neighbor).
	for _, via := range []int{2, 3} {
		if err := d.SetLinkLoad(0, via, 0); err != nil {
			t.Fatal(err)
		}
	}
	sel, ok = d.Daemon(0).SelectAlternative(table)
	if !ok || sel.Alt.Via != 2 {
		t.Errorf("equal spare: selected %d, want 2 (route-preference tie-break)", sel.Alt.Via)
	}
}

func TestEncapDeflectionAcrossIBGP(t *testing.T) {
	// Same topology as Fig. 2(c)/2(b): congest AS 0's default egress; a
	// packet from AS 0 must be encapsulated at the default egress router,
	// handed to the alternative's owner over iBGP, and exit there.
	b := topo.NewBuilder(5)
	b.AddPC(1, 0).AddPC(2, 0).AddPC(3, 0)
	b.AddPC(1, 4).AddPC(2, 4).AddPC(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeployment(g, Config{ExpandASes: []int{0}})
	table := bgp.Compute(g, 4)
	d.InstallDestination(table)
	if err := d.SetLinkLoad(0, 1, 1e9); err != nil { // congest default egress link
		t.Fatal(err)
	}
	d.Refresh()

	// Send from the *default egress* router so the deflection must cross iBGP.
	egressR, _, err := d.EgressPort(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &dataplane.Packet{Flow: dataplane.FlowKey{SrcAddr: 5, DstAddr: 4}, Dst: 4}
	res := d.Net.Send(p, egressR.ID)
	if res.Verdict != dataplane.VerdictDeliver {
		t.Fatalf("verdict = %v/%v", res.Verdict, res.Reason)
	}
	asPath := res.ASPath(d.Net)
	if asPath[len(asPath)-1] != 4 || asPath[1] == 1 {
		t.Errorf("AS path = %v, want deflection away from AS 1", asPath)
	}
	if res.Deflections == 0 {
		t.Error("expected at least one deflection")
	}
}

func TestLegacyASNeverDeflects(t *testing.T) {
	g := fig2aGraph(t)
	capable := []bool{false, false, false, false}
	d := NewDeployment(g, Config{Capable: capable})
	table := bgp.Compute(g, 0)
	d.InstallDestination(table)
	d.SetLinkLoad(1, 0, 1e9)
	d.Refresh()
	res := d.Send(dataplane.FlowKey{SrcAddr: 1, DstAddr: 0}, 1, 0)
	if res.Verdict != dataplane.VerdictDeliver || res.Deflections != 0 {
		t.Fatalf("legacy deployment deflected: %v, %d deflections", res.Verdict, res.Deflections)
	}
	if d.Daemon(1) != nil {
		t.Error("legacy AS should have no daemon")
	}
}

func TestUnreachableGetsNoFIBEntry(t *testing.T) {
	// Disconnected component: AS 3 has no route to 0.
	b := topo.NewBuilder(4)
	b.AddPC(1, 0).AddPC(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeployment(g, Config{})
	d.InstallDestination(bgp.Compute(g, 0))
	res := d.Send(dataplane.FlowKey{SrcAddr: 3, DstAddr: 0}, 3, 0)
	if res.Verdict != dataplane.VerdictDrop || res.Reason != dataplane.DropNoRoute {
		t.Fatalf("verdict = %v/%v, want no-route drop", res.Verdict, res.Reason)
	}
}

// The paper's theorem, exercised end to end: on random Internet-like
// topologies with arbitrary congestion and full MIFO deployment, no packet
// ever loops (TTL drops are loops by construction).
func TestLoopFreedomUnderRandomCongestion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		g, err := topo.Generate(topo.GenConfig{N: 120, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		d := NewDeployment(g, Config{})
		dsts := []int{0, g.N() / 2, g.N() - 1}
		for _, dst := range dsts {
			d.InstallDestination(bgp.Compute(g, dst))
		}
		// Congest a random third of all directional links.
		for v := 0; v < g.N(); v++ {
			for _, nb := range g.Neighbors(v) {
				if rng.Intn(3) == 0 {
					d.SetLinkLoad(v, int(nb.AS), 1e9)
				}
			}
		}
		d.Refresh()
		delivered, vfDrops := 0, 0
		for _, dst := range dsts {
			for src := 0; src < g.N(); src++ {
				if src == dst {
					continue
				}
				res := d.Send(dataplane.FlowKey{SrcAddr: uint32(src), DstAddr: uint32(dst), SrcPort: uint16(trial)}, src, dst)
				switch {
				case res.Verdict == dataplane.VerdictDeliver:
					delivered++
				case res.Reason == dataplane.DropValleyFree:
					vfDrops++
				case res.Reason == dataplane.DropTTL:
					t.Fatalf("trial %d: LOOP src=%d dst=%d hops=%v", trial, src, dst, res.Hops)
				default:
					t.Fatalf("trial %d: unexpected %v/%v src=%d dst=%d", trial, res.Verdict, res.Reason, src, dst)
				}
			}
		}
		if delivered == 0 {
			t.Fatal("nothing delivered — setup broken")
		}
	}
}

// Same property under partial deployment: legacy ASes forward on default
// routes, capable ASes deflect; still no loops.
func TestLoopFreedomPartialDeployment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := topo.Generate(topo.GenConfig{N: 150, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	capable := make([]bool, g.N())
	for v := range capable {
		capable[v] = rng.Intn(2) == 0
	}
	d := NewDeployment(g, Config{Capable: capable})
	dst := 3
	d.InstallDestination(bgp.Compute(g, dst))
	for v := 0; v < g.N(); v++ {
		for _, nb := range g.Neighbors(v) {
			if rng.Intn(2) == 0 {
				d.SetLinkLoad(v, int(nb.AS), 1e9)
			}
		}
	}
	d.Refresh()
	for src := 0; src < g.N(); src++ {
		if src == dst {
			continue
		}
		res := d.Send(dataplane.FlowKey{SrcAddr: uint32(src), DstAddr: uint32(dst)}, src, dst)
		if res.Verdict == dataplane.VerdictDrop && res.Reason == dataplane.DropTTL {
			t.Fatalf("LOOP with partial deployment: src=%d", src)
		}
	}
}

// Ablation: with the tag-check disabled, the Fig. 2(a) pressure pattern
// loops — demonstrating the check is what provides loop freedom.
func TestTagCheckAblationLoops(t *testing.T) {
	g := fig2aGraph(t)
	d := NewDeployment(g, Config{})
	d.InstallDestination(bgp.Compute(g, 0))
	for as := 1; as <= 3; as++ {
		d.SetLinkLoad(as, 0, 1e9)
	}
	d.Refresh()
	for _, r := range d.Net.Routers {
		r.DisableTagCheck = true
	}
	sawLoop := false
	for src := 1; src <= 3; src++ {
		res := d.Send(dataplane.FlowKey{SrcAddr: uint32(src), DstAddr: 0}, src, 0)
		if res.Verdict == dataplane.VerdictDrop && res.Reason == dataplane.DropTTL {
			sawLoop = true
		}
	}
	if !sawLoop {
		t.Error("expected a data-plane loop with the tag-check disabled")
	}
}

func TestRefreshClearsAltWhenNoAlternative(t *testing.T) {
	// Chain 2 -> 1 -> 0: AS 2 has exactly one route to 0, no alternatives.
	b := topo.NewBuilder(3)
	b.AddPC(1, 0).AddPC(2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeployment(g, Config{})
	table := bgp.Compute(g, 0)
	d.InstallDestination(table)
	d.Refresh()
	r := d.Routers(2)[0]
	e, ok := r.FIB.Lookup(0)
	if !ok || e.Alt != -1 {
		t.Errorf("entry = %+v, want no alternative", e)
	}
	if _, ok := d.Daemon(2).SelectAlternative(table); ok {
		t.Error("SelectAlternative should report no alternative")
	}
}

func BenchmarkDeploymentBuild(b *testing.B) {
	g, err := topo.Generate(topo.GenConfig{N: 500, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDeployment(g, Config{})
	}
}

func BenchmarkRefresh(b *testing.B) {
	g, err := topo.Generate(topo.GenConfig{N: 500, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	d := NewDeployment(g, Config{})
	d.InstallDestination(bgp.Compute(g, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Refresh()
	}
}
