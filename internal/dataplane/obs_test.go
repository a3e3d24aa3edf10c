package dataplane

import (
	"testing"

	"repro/internal/topo"
)

// twoPortRouter builds a router with a congested default eBGP port and a
// peer-class alternative, plus a FIB entry for dst 7.
func twoPortRouter(alt topo.Rel) *Router {
	r := NewRouter(0, 1)
	out := r.AddPort(Port{Kind: EBGP, Peer: 1, PeerAS: 2, Rel: topo.Provider, CapacityBps: 1e9})
	altP := r.AddPort(Port{Kind: EBGP, Peer: 2, PeerAS: 3, Rel: alt, CapacityBps: 1e9})
	r.FIB.Set(7, FIBEntry{Out: out, Alt: altP, AltVia: 2})
	r.SetQueueRatio(out, 1) // congested default
	return r
}

// TestRouterDropCountersByReason: every drop the engine decides comes back
// in the returned Action and reaches the Hop hook with the same reason, so
// a hook can count drops by reason.
func TestRouterDropCountersByReason(t *testing.T) {
	var drops [4]int
	hook := func(_ *Packet, h HopInfo) {
		if h.Verdict == VerdictDrop {
			drops[h.Reason]++
		}
	}
	want := func(act Action, reason DropReason) {
		t.Helper()
		if act.Verdict != VerdictDrop || act.Reason != reason {
			t.Fatalf("action = %+v, want a %v drop", act, reason)
		}
	}

	r := NewRouter(0, 1)
	r.Hop = hook
	want(r.Forward(&Packet{Dst: 9, TTL: 8}, -1), DropNoRoute)

	// A peer-class alternative with an unset tag fails the tag-check.
	r2 := twoPortRouter(topo.Peer)
	r2.Hop = hook
	in := 0 // entered from the provider port: tag stays false
	want(r2.Forward(&Packet{Dst: 7, TTL: 8}, in), DropValleyFree)
	want(r2.DropExpired(&Packet{Dst: 7}, in), DropTTL)

	if wantDrops := [4]int{DropNoRoute: 1, DropValleyFree: 1, DropTTL: 1}; drops != wantDrops {
		t.Errorf("hook counted drops %v, want %v", drops, wantDrops)
	}
}

func TestNetworkSendCountsTTLDrop(t *testing.T) {
	// Two routers forwarding to each other forever: TTL must expire and be
	// counted at the router where it died.
	n := NewNetwork()
	a := n.AddRouter(1)
	b := n.AddRouter(2)
	pa, pb := n.Connect(a.ID, b.ID, EBGP, topo.Customer, 1e9)
	a.FIB.Set(7, FIBEntry{Out: pa, Alt: -1, AltVia: -1})
	b.FIB.Set(7, FIBEntry{Out: pb, Alt: -1, AltVia: -1})
	ttlDrops := map[RouterID]int{}
	for _, r := range n.Routers {
		r.Hop = func(_ *Packet, h HopInfo) {
			if h.Reason == DropTTL {
				ttlDrops[h.Router]++
			}
		}
	}
	res := n.Send(&Packet{Dst: 7, TTL: 6}, a.ID)
	if res.Verdict != VerdictDrop || res.Reason != DropTTL {
		t.Fatalf("want TTL drop, got %+v", res)
	}
	if len(ttlDrops) != 1 || ttlDrops[res.At] != 1 {
		t.Errorf("TTL drops by router = %v, want one at router %d", ttlDrops, res.At)
	}
}

// TestHopRefusalMatchesDecidingEntry: the alternative a valley-free drop
// reports refusing must be the one the engine refused, even while a writer
// commits FIB generations concurrently (netd runs the daemons beside the
// forwarding loops). Untagged packets are dropped only while the
// alternative is the peer port — a customer alternative deflects — so
// every such drop must describe a peer-class refusal. Re-reading the FIB
// to describe the drop would sometimes see the customer generation and
// report a refusal the auditor flags as an unjustified tag-drop.
func TestHopRefusalMatchesDecidingEntry(t *testing.T) {
	r := twoPortRouter(topo.Peer)
	e, _ := r.FIB.Lookup(7)
	cust := r.AddPort(Port{Kind: EBGP, Peer: 3, PeerAS: 4, Rel: topo.Customer, CapacityBps: 1e9})
	alts := [2]int{e.Alt, cust}

	var drops, wrong int
	r.Hop = func(_ *Packet, h HopInfo) {
		if h.Reason != DropValleyFree {
			return
		}
		drops++
		if !h.AltTried || h.AltRel != topo.Peer {
			wrong++
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i ^= 1 {
			select {
			case <-stop:
				return
			default:
			}
			r.FIB.SetAlt(7, alts[i], e.AltVia)
		}
	}()
	p := &Packet{Dst: 7}
	for i := 0; i < 200_000; i++ {
		r.Forward(p, 0) // from the provider port: the tag stays clear
	}
	close(stop)
	<-done

	if drops == 0 {
		t.Fatal("scenario drifted: no valley-free drops")
	}
	if wrong != 0 {
		t.Fatalf("%d of %d valley-free drops described another generation's alternative", wrong, drops)
	}
}
