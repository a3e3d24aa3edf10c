package dataplane

import (
	"testing"

	"repro/internal/topo"
)

const gbps = 1e9

// fig2aNet builds the Fig. 2(a) scenario as a router network: one router
// per AS; AS 0 (the destination, prefix 0) is a customer of ASes 1, 2, 3,
// which peer in a triangle. Each of 1, 2, 3 uses its direct link to 0 as
// the default and its clockwise peer (1->2->3->1) as the alternative.
func fig2aNet(t testing.TB) (*Network, [4]*Router, [4]int) {
	t.Helper()
	n := NewNetwork()
	var r [4]*Router
	for as := int32(0); as < 4; as++ {
		r[as] = n.AddRouter(as)
	}
	// Direct customer links to AS 0.
	var toZero [4]int
	for as := 1; as <= 3; as++ {
		p, _ := n.Connect(r[as].ID, r[0].ID, EBGP, topo.Customer, gbps)
		toZero[as] = p
	}
	// Peering triangle.
	p12, p21 := n.Connect(r[1].ID, r[2].ID, EBGP, topo.Peer, gbps)
	p23, p32 := n.Connect(r[2].ID, r[3].ID, EBGP, topo.Peer, gbps)
	p31, p13 := n.Connect(r[3].ID, r[1].ID, EBGP, topo.Peer, gbps)
	_ = p21
	_ = p32
	_ = p13

	r[0].Local[0] = true
	r[1].FIB.Set(0, FIBEntry{Out: toZero[1], Alt: p12, AltVia: r[2].ID})
	r[2].FIB.Set(0, FIBEntry{Out: toZero[2], Alt: p23, AltVia: r[3].ID})
	r[3].FIB.Set(0, FIBEntry{Out: toZero[3], Alt: p31, AltVia: r[1].ID})
	return n, r, toZero
}

func congestAllDefaults(r [4]*Router, toZero [4]int) {
	for as := 1; as <= 3; as++ {
		r[as].SetQueueRatio(toZero[as], 1.0)
	}
}

func TestFig2aTagCheckCutsLoop(t *testing.T) {
	n, r, toZero := fig2aNet(t)
	congestAllDefaults(r, toZero)
	p := &Packet{Flow: FlowKey{SrcAddr: 1, DstAddr: 0}, Dst: 0}
	res := n.Send(p, r[1].ID)
	// AS 1 deflects to AS 2 (locally originated traffic is tagged).
	// AS 2 entered from a peer and its alternative is another peer:
	// the tag-check must drop the packet, cutting the 1->2->3->1 loop.
	if res.Verdict != VerdictDrop || res.Reason != DropValleyFree {
		t.Fatalf("verdict = %v/%v at router %d, want valley-free drop", res.Verdict, res.Reason, res.At)
	}
	if res.At != r[2].ID {
		t.Errorf("drop happened at router %d, want AS 2's router", res.At)
	}
	if res.Deflections != 1 {
		t.Errorf("deflections = %d, want 1 (only AS 1 deflected)", res.Deflections)
	}
}

func TestFig2aLoopsWithoutTagCheck(t *testing.T) {
	n, r, toZero := fig2aNet(t)
	congestAllDefaults(r, toZero)
	for as := 1; as <= 3; as++ {
		r[as].DisableTagCheck = true
	}
	p := &Packet{Flow: FlowKey{SrcAddr: 1, DstAddr: 0}, Dst: 0}
	res := n.Send(p, r[1].ID)
	// Without the valley-free constraint the packet cycles 1->2->3->1...
	// until the TTL backstop fires — exactly the loop the paper proves
	// the tag-check prevents.
	if res.Verdict != VerdictDrop || res.Reason != DropTTL {
		t.Fatalf("verdict = %v/%v, want TTL drop (loop)", res.Verdict, res.Reason)
	}
	if len(res.Hops) < DefaultTTL {
		t.Errorf("hops = %d, want the full TTL budget consumed", len(res.Hops))
	}
}

func TestFig2aNoCongestionUsesDefault(t *testing.T) {
	n, r, _ := fig2aNet(t)
	p := &Packet{Flow: FlowKey{SrcAddr: 9, DstAddr: 0}, Dst: 0}
	res := n.Send(p, r[3].ID)
	if res.Verdict != VerdictDeliver || res.At != r[0].ID {
		t.Fatalf("verdict = %v at %d, want delivery at AS 0", res.Verdict, res.At)
	}
	if len(res.Hops) != 2 || res.Deflections != 0 {
		t.Errorf("hops=%d deflections=%d, want direct 2-hop default path", len(res.Hops), res.Deflections)
	}
}

func TestFig2aDeflectionViaPeerWhenTagged(t *testing.T) {
	// Only AS 1's default is congested: traffic originated at AS 1 deflects
	// to peer AS 2, which then delivers over its (uncongested) default.
	// This is legal: the packet entered AS 2 *from* AS 2's peer, but AS 2
	// forwards it to its customer (AS 0) — no valley.
	n, r, toZero := fig2aNet(t)
	r[1].SetQueueRatio(toZero[1], 0.95)
	p := &Packet{Flow: FlowKey{SrcAddr: 1, DstAddr: 0}, Dst: 0}
	res := n.Send(p, r[1].ID)
	if res.Verdict != VerdictDeliver {
		t.Fatalf("verdict = %v/%v, want delivery", res.Verdict, res.Reason)
	}
	wantAS := []int32{1, 2, 0}
	got := res.ASPath(n)
	if len(got) != len(wantAS) {
		t.Fatalf("AS path = %v, want %v", got, wantAS)
	}
	for i := range wantAS {
		if got[i] != wantAS[i] {
			t.Fatalf("AS path = %v, want %v", got, wantAS)
		}
	}
}

// fig2bNet builds the Fig. 2(b) scenario: AS X has two border routers, R1
// (default egress to Y) and R2 (alternative egress to Z), connected by
// iBGP. Both Y and Z deliver prefix 0.
func fig2bNet(t testing.TB) (n *Network, r1, r2, ry, rz *Router) {
	t.Helper()
	n = NewNetwork()
	r1 = n.AddRouter(10) // AS X
	r2 = n.AddRouter(10) // AS X
	ry = n.AddRouter(20) // AS Y
	rz = n.AddRouter(30) // AS Z
	p1y, _ := n.Connect(r1.ID, ry.ID, EBGP, topo.Provider, gbps)
	p2z, _ := n.Connect(r2.ID, rz.ID, EBGP, topo.Provider, gbps)
	p12, p21 := n.Connect(r1.ID, r2.ID, IBGP, topo.Peer, 10*gbps)

	ry.Local[0] = true
	rz.Local[0] = true
	// R1: default out to Y; alternative via iBGP peer R2.
	r1.FIB.Set(0, FIBEntry{Out: p1y, Alt: p12, AltVia: r2.ID})
	// R2: default is via R1 (iBGP); its own eBGP link to Z is the alternative.
	r2.FIB.Set(0, FIBEntry{Out: p21, Alt: p2z, AltVia: rz.ID})
	return n, r1, r2, ry, rz
}

func TestFig2bEncapAvoidsCycle(t *testing.T) {
	n, r1, r2, _, rz := fig2bNet(t)
	// Congest R1's default egress.
	r1.SetQueueRatio(0, 1.0)
	p := &Packet{Flow: FlowKey{SrcAddr: 7, DstAddr: 0}, Dst: 0}
	res := n.Send(p, r1.ID)
	if res.Verdict != VerdictDeliver || res.At != rz.ID {
		t.Fatalf("verdict = %v/%v at %d, want delivery via Z", res.Verdict, res.Reason, res.At)
	}
	// Journey: R1 (encap, deflect) -> R2 (decap, bounce-detect, deflect) -> Z.
	if len(res.Hops) != 3 {
		t.Fatalf("hops = %v, want 3", res.Hops)
	}
	if res.Hops[0].Router != r1.ID || !res.Hops[0].Deflected {
		t.Errorf("hop 0 = %+v, want deflection at R1", res.Hops[0])
	}
	if res.Hops[1].Router != r2.ID || !res.Hops[1].Deflected {
		t.Errorf("hop 1 = %+v, want deflection at R2 (sender == default next hop)", res.Hops[1])
	}
	if p.Encap {
		t.Error("packet should be decapsulated on delivery path")
	}
}

func TestFig2bNoCongestionStaysOnDefault(t *testing.T) {
	n, r1, _, ry, _ := fig2bNet(t)
	p := &Packet{Flow: FlowKey{SrcAddr: 7, DstAddr: 0}, Dst: 0}
	res := n.Send(p, r1.ID)
	if res.Verdict != VerdictDeliver || res.At != ry.ID {
		t.Fatalf("delivery at %d, want via Y (default)", res.At)
	}
}

func TestFig2bTrafficFromR2SideUsesDefaultThroughR1(t *testing.T) {
	// Un-congested: traffic entering at R2 goes R2 -> R1 -> Y over iBGP.
	n, r1, r2, ry, _ := fig2bNet(t)
	_ = r1
	p := &Packet{Flow: FlowKey{SrcAddr: 8, DstAddr: 0}, Dst: 0}
	res := n.Send(p, r2.ID)
	if res.Verdict != VerdictDeliver || res.At != ry.ID {
		t.Fatalf("delivery at %d (%v/%v), want via Y", res.At, res.Verdict, res.Reason)
	}
	if res.Deflections != 0 {
		t.Errorf("deflections = %d, want 0", res.Deflections)
	}
}

func TestMisconfiguredAltPingPongHitsTTL(t *testing.T) {
	// Deliberately broken daemon state: R1 and R2 point their alternatives
	// at each other and both defaults are congested. The TTL backstop must
	// terminate the intra-AS ping-pong.
	n, r1, r2, _, _ := fig2bNet(t)
	p12 := 1 // R1's iBGP port (port 0 is the eBGP link, added first)
	p21 := 1
	r1.FIB.Set(0, FIBEntry{Out: 0, Alt: p12, AltVia: r2.ID})
	r2.FIB.Set(0, FIBEntry{Out: p21, Alt: p21, AltVia: r1.ID})
	r1.SetQueueRatio(0, 1.0)
	r2.SetQueueRatio(0, 1.0)
	p := &Packet{Flow: FlowKey{SrcAddr: 7, DstAddr: 0}, Dst: 0}
	res := n.Send(p, r1.ID)
	if res.Verdict != VerdictDrop || res.Reason != DropTTL {
		t.Fatalf("verdict = %v/%v, want TTL drop", res.Verdict, res.Reason)
	}
}

func TestTaggingAtEntry(t *testing.T) {
	n := NewNetwork()
	rCust := n.AddRouter(1) // upstream customer
	rMid := n.AddRouter(2)  // AS under test
	rPeer := n.AddRouter(3) // upstream peer
	rDst := n.AddRouter(4)  // destination
	pc, _ := n.Connect(rMid.ID, rCust.ID, EBGP, topo.Customer, gbps)
	pp, _ := n.Connect(rMid.ID, rPeer.ID, EBGP, topo.Peer, gbps)
	pd, _ := n.Connect(rMid.ID, rDst.ID, EBGP, topo.Customer, gbps)
	rMid.FIB.Set(4, FIBEntry{Out: pd, Alt: -1})
	rDst.Local[4] = true

	// From the customer: tag must be set.
	p := &Packet{Dst: 4, TTL: 8}
	act := rMid.Forward(p, pc)
	if act.Verdict != VerdictForward || !p.Tag {
		t.Errorf("customer entry: tag=%v verdict=%v, want tag set", p.Tag, act.Verdict)
	}
	// From the peer: tag must be cleared, even if previously set.
	p2 := &Packet{Dst: 4, Tag: true, TTL: 8}
	act = rMid.Forward(p2, pp)
	if act.Verdict != VerdictForward || p2.Tag {
		t.Errorf("peer entry: tag=%v, want cleared", p2.Tag)
	}
	// Locally originated: tag set.
	p3 := &Packet{Dst: 4, TTL: 8}
	if rMid.Forward(p3, -1); !p3.Tag {
		t.Error("locally originated packet should be tagged")
	}
}

func TestNoRouteDrop(t *testing.T) {
	n := NewNetwork()
	r := n.AddRouter(1)
	p := &Packet{Dst: 99}
	res := n.Send(p, r.ID)
	if res.Verdict != VerdictDrop || res.Reason != DropNoRoute {
		t.Fatalf("verdict = %v/%v, want no-route drop", res.Verdict, res.Reason)
	}
}

func TestLegacyRouterNeverDeflects(t *testing.T) {
	n, r, toZero := fig2aNet(t)
	congestAllDefaults(r, toZero)
	r[1].MIFOEnabled = false
	p := &Packet{Flow: FlowKey{SrcAddr: 1, DstAddr: 0}, Dst: 0}
	res := n.Send(p, r[1].ID)
	// Legacy AS 1 ignores congestion and uses its default: delivered.
	if res.Verdict != VerdictDeliver || res.Deflections != 0 {
		t.Fatalf("legacy router deflected: %v, deflections=%d", res.Verdict, res.Deflections)
	}
}

func TestCongestedWithoutAltFallsBackToDefault(t *testing.T) {
	n := NewNetwork()
	a := n.AddRouter(1)
	b := n.AddRouter(2)
	pab, _ := n.Connect(a.ID, b.ID, EBGP, topo.Customer, gbps)
	a.FIB.Set(2, FIBEntry{Out: pab, Alt: -1})
	b.Local[2] = true
	a.SetQueueRatio(pab, 1.0)
	p := &Packet{Dst: 2}
	res := n.Send(p, a.ID)
	if res.Verdict != VerdictDeliver {
		t.Fatalf("want best-effort delivery on congested default, got %v/%v", res.Verdict, res.Reason)
	}
}

func TestDeflectSharePolicy(t *testing.T) {
	n, r, toZero := fig2aNet(t)
	r[1].SetQueueRatio(toZero[1], 1.0)
	r[1].Deflect = DeflectShare(0.5)
	deflected, direct := 0, 0
	for i := 0; i < 2000; i++ {
		p := &Packet{Flow: FlowKey{SrcAddr: uint32(i), DstAddr: 0, SrcPort: uint16(i)}, Dst: 0}
		res := n.Send(p, r[1].ID)
		if res.Verdict != VerdictDeliver {
			t.Fatalf("flow %d: %v/%v", i, res.Verdict, res.Reason)
		}
		if res.Deflections > 0 {
			deflected++
		} else {
			direct++
		}
	}
	frac := float64(deflected) / 2000
	if frac < 0.40 || frac > 0.60 {
		t.Errorf("deflected share = %v, want ~0.5", frac)
	}
	// Determinism: the same flow always takes the same path.
	p := &Packet{Flow: FlowKey{SrcAddr: 42, DstAddr: 0}, Dst: 0}
	first := n.Send(&Packet{Flow: p.Flow, Dst: 0}, r[1].ID).Deflections
	for i := 0; i < 10; i++ {
		if n.Send(&Packet{Flow: p.Flow, Dst: 0}, r[1].ID).Deflections != first {
			t.Fatal("flow path not deterministic under DeflectShare")
		}
	}
}

func TestEncapToWrongRouterDrops(t *testing.T) {
	// An encapsulated packet whose outer destination is not this router is
	// a wiring error (iBGP peers are directly connected); it must drop
	// rather than be misdelivered.
	n, r1, r2, _, _ := fig2bNet(t)
	_ = r2
	p := &Packet{Dst: 0, Encap: true, OuterSrc: 99, OuterDst: 98, TTL: 8}
	act := r1.Forward(p, 1)
	if act.Verdict != VerdictDrop || act.Reason != DropNoRoute {
		t.Fatalf("action = %v/%v, want no-route drop", act.Verdict, act.Reason)
	}
	_ = n
}

func TestActionAndPacketStrings(t *testing.T) {
	if (Action{Verdict: VerdictDeliver}).String() != "deliver" {
		t.Error("deliver string")
	}
	if got := (Action{Verdict: VerdictForward, Port: 3, Deflected: true}).String(); got != "forward(port 3, deflected)" {
		t.Errorf("deflected forward string = %q", got)
	}
	if got := (Action{Verdict: VerdictForward, Port: 1}).String(); got != "forward(port 1)" {
		t.Errorf("forward string = %q", got)
	}
	if got := (Action{Verdict: VerdictDrop, Reason: DropValleyFree}).String(); got != "drop(valley-free)" {
		t.Errorf("drop string = %q", got)
	}
	p := &Packet{Flow: FlowKey{SrcAddr: 0x0A000001, DstAddr: 0xC6120001, SrcPort: 5, DstPort: 80, Proto: 6}, Dst: 1, TTL: 9}
	want := "10.0.0.1:5 > 198.18.0.1:80 proto 6 dst-prefix=1 ttl=9 tag=0"
	if p.String() != want {
		t.Errorf("packet string = %q, want %q", p.String(), want)
	}
}

func TestDeflectShareBounds(t *testing.T) {
	always := DeflectShare(1.5)
	never := DeflectShare(-1)
	k := FlowKey{SrcAddr: 1}
	if !always(k) {
		t.Error("share > 1 should deflect everything")
	}
	if never(k) {
		t.Error("share < 0 should deflect nothing")
	}
}

// TestForwardAllocatesNothing holds the per-packet cost model: every
// verdict Forward can return, and the TTL expiry DropExpired reports, runs
// without a heap allocation, with no Hop hook and with a no-op one, and
// so does FIB.Lookup. Each case is measured over 1,000 calls in one run,
// so an amortized allocation (a slice that grows now and then) shows up
// instead of rounding to zero per call.
func TestForwardAllocatesNothing(t *testing.T) {
	const calls = 1000
	r := NewRouter(0, 1)
	cust := r.AddPort(Port{Kind: EBGP, Peer: 1, PeerAS: 2, Rel: topo.Customer, CapacityBps: gbps})
	peer := r.AddPort(Port{Kind: EBGP, Peer: 2, PeerAS: 3, Rel: topo.Peer, CapacityBps: gbps})
	ibgp := r.AddPort(Port{Kind: IBGP, Peer: 3, PeerAS: 1, CapacityBps: gbps})
	host := r.AddPort(Port{Kind: Host, Peer: -1, PeerPort: -1, PeerAS: 1, CapacityBps: gbps})
	prov := r.AddPort(Port{Kind: EBGP, Peer: 4, PeerAS: 4, Rel: topo.Provider, CapacityBps: gbps})
	r.SetQueueRatio(peer, 1)
	r.SetQueueRatio(prov, 1)
	r.Local[5] = true
	r.FIB.Set(6, FIBEntry{Out: cust, Alt: -1, AltVia: -1})
	r.FIB.Set(7, FIBEntry{Out: peer, Alt: cust, AltVia: 1})
	r.FIB.Set(8, FIBEntry{Out: prov, Alt: ibgp, AltVia: 3})
	r.FIB.Set(9, FIBEntry{Out: prov, Alt: peer, AltVia: 2})

	flow := FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	cases := []struct {
		name string
		pkt  Packet
		in   int
		want Action
	}{
		{"default", Packet{Flow: flow, Dst: 6}, host, Action{Verdict: VerdictForward, Port: cust}},
		{"deliver", Packet{Flow: flow, Dst: 5}, cust, Action{Verdict: VerdictDeliver}},
		{"deflect", Packet{Flow: flow, Dst: 7}, host, Action{Verdict: VerdictForward, Port: cust, Deflected: true}},
		{"encap", Packet{Flow: flow, Dst: 8}, host, Action{Verdict: VerdictForward, Port: ibgp, Deflected: true}},
		{"decap", Packet{Flow: flow, Dst: 6, Encap: true, OuterSrc: 3, OuterDst: 0}, ibgp, Action{Verdict: VerdictForward, Port: cust}},
		{"valley-free-drop", Packet{Flow: flow, Dst: 9}, peer, Action{Verdict: VerdictDrop, Reason: DropValleyFree}},
		{"misdirected-encap", Packet{Flow: flow, Dst: 6, Encap: true, OuterSrc: 3, OuterDst: 9}, ibgp, Action{Verdict: VerdictDrop, Reason: DropNoRoute}},
		{"no-route", Packet{Flow: flow, Dst: 99}, host, Action{Verdict: VerdictDrop, Reason: DropNoRoute}},
		{"ttl-expiry", Packet{Flow: flow, Dst: 6}, cust, Action{Verdict: VerdictDrop, Reason: DropTTL}},
	}
	hooks := []struct {
		name string
		hop  HopFunc
	}{
		{"nil-hook", nil},
		{"noop-hook", func(*Packet, HopInfo) {}},
	}
	for _, c := range cases {
		decide := r.Forward
		if c.want.Reason == DropTTL {
			decide = r.DropExpired
		}
		for _, h := range hooks {
			t.Run(c.name+"/"+h.name, func(t *testing.T) {
				r.Hop = h.hop
				defer func() { r.Hop = nil }()
				p := new(Packet)
				*p = c.pkt
				if got := decide(p, c.in); got != c.want {
					t.Fatalf("action %+v, want %+v", got, c.want)
				}
				allocs := testing.AllocsPerRun(1, func() {
					for i := 0; i < calls; i++ {
						*p = c.pkt
						decide(p, c.in)
					}
				})
				if allocs != 0 {
					t.Fatalf("%v allocations over %d calls, want 0", allocs, calls)
				}
			})
		}
	}
	t.Run("FIB.Lookup", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < calls; i++ {
				r.FIB.Lookup(int32(6 + i%4))
			}
		})
		if allocs != 0 {
			t.Fatalf("%v allocations over %d lookups, want 0", allocs, calls)
		}
	})
}
