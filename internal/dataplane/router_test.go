package dataplane

import (
	"testing"
	"testing/quick"

	"repro/internal/topo"
)

func TestFIBOperations(t *testing.T) {
	f := NewFIB()
	if _, ok := f.Lookup(1); ok {
		t.Fatal("empty FIB should miss")
	}
	f.Set(1, FIBEntry{Out: 2, Alt: -1})
	e, ok := f.Lookup(1)
	if !ok || e.Out != 2 || e.Alt != -1 {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	setAlt := func(dst int32, alt int, via RouterID) bool {
		tx := f.Begin()
		defer tx.Commit()
		return tx.SetAlt(dst, alt, via)
	}
	setAlt(1, 3, 7)
	if e, _ = f.Lookup(1); e.Alt != 3 || e.AltVia != 7 || e.Out != 2 {
		t.Fatalf("after SetAlt: %+v", e)
	}
	setAlt(1, -1, -1)
	if e, _ = f.Lookup(1); e.Alt != -1 {
		t.Fatalf("after clearing the alternative: %+v", e)
	}
	// SetAlt on missing destination is a no-op.
	if setAlt(9, 1, 1) {
		t.Fatal("SetAlt on a missing entry reported success")
	}
	if _, ok = f.Lookup(9); ok {
		t.Fatal("SetAlt must not create entries")
	}
	if f.Len() != 1 {
		t.Fatalf("len = %d, want 1", f.Len())
	}
}

func TestFlowKeyHashStability(t *testing.T) {
	k := FlowKey{SrcAddr: 0x0a000001, DstAddr: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: 6}
	if k.Hash() != k.Hash() {
		t.Fatal("hash must be deterministic")
	}
	k2 := k
	k2.SrcPort = 1235
	if k.Hash() == k2.Hash() {
		t.Error("different tuples should (almost surely) hash differently")
	}
}

func TestFlowKeyHashDispersion(t *testing.T) {
	buckets := make([]int, 16)
	for i := 0; i < 16000; i++ {
		k := FlowKey{SrcAddr: uint32(i), DstAddr: uint32(i * 7), SrcPort: uint16(i), Proto: 6}
		buckets[k.Hash()%16]++
	}
	for b, c := range buckets {
		if c < 500 || c > 1500 {
			t.Errorf("bucket %d has %d entries; hash poorly dispersed", b, c)
		}
	}
}

func TestRouterCongestionSignal(t *testing.T) {
	n := NewNetwork()
	r := n.AddRouter(1)
	r2 := n.AddRouter(2)
	p, _ := n.Connect(r.ID, r2.ID, EBGP, topo.Peer, 1e9)
	if r.Congested(p) {
		t.Error("fresh port should not be congested")
	}
	r.SetQueueRatio(p, 0.79)
	if r.Congested(p) {
		t.Error("below threshold should not be congested")
	}
	r.SetQueueRatio(p, 0.8)
	if !r.Congested(p) {
		t.Error("at threshold should be congested")
	}
	if got := r.QueueRatio(p); got != 0.8 {
		t.Errorf("QueueRatio = %v", got)
	}
}

func TestSpareCapacity(t *testing.T) {
	n := NewNetwork()
	r := n.AddRouter(1)
	r2 := n.AddRouter(2)
	p, _ := n.Connect(r.ID, r2.ID, EBGP, topo.Peer, 1e9)
	if got := r.SpareCapacity(p); got != 1e9 {
		t.Errorf("unused spare = %v, want 1e9", got)
	}
	r.SetUtilization(p, 4e8)
	if got := r.SpareCapacity(p); got != 6e8 {
		t.Errorf("spare = %v, want 6e8", got)
	}
	r.SetUtilization(p, 2e9)
	if got := r.SpareCapacity(p); got != 0 {
		t.Errorf("overloaded spare = %v, want 0", got)
	}
}

func TestConnectValidation(t *testing.T) {
	n := NewNetwork()
	a := n.AddRouter(1)
	b := n.AddRouter(1)
	c := n.AddRouter(2)
	mustPanic(t, "iBGP across ASes", func() { n.Connect(a.ID, c.ID, IBGP, topo.Peer, 1) })
	mustPanic(t, "eBGP within AS", func() { n.Connect(a.ID, b.ID, EBGP, topo.Peer, 1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestConnectRelationshipInversion(t *testing.T) {
	n := NewNetwork()
	prov := n.AddRouter(1)
	cust := n.AddRouter(2)
	pp, pc := n.Connect(prov.ID, cust.ID, EBGP, topo.Customer, 1e9)
	if prov.Ports[pp].Rel != topo.Customer {
		t.Errorf("provider-side rel = %v, want customer", prov.Ports[pp].Rel)
	}
	if cust.Ports[pc].Rel != topo.Provider {
		t.Errorf("customer-side rel = %v, want provider", cust.Ports[pc].Rel)
	}
	if prov.Ports[pp].Peer != cust.ID || prov.Ports[pp].PeerPort != pc {
		t.Error("peer back-references wrong")
	}
	if cust.Ports[pc].Peer != prov.ID || cust.Ports[pc].PeerPort != pp {
		t.Error("peer back-references wrong on far side")
	}
}

func TestVerdictAndReasonStrings(t *testing.T) {
	if VerdictForward.String() != "forward" || VerdictDeliver.String() != "deliver" ||
		VerdictDrop.String() != "drop" || Verdict(9).String() != "Verdict(9)" {
		t.Error("Verdict.String wrong")
	}
	if DropNone.String() != "none" || DropNoRoute.String() != "no-route" ||
		DropValleyFree.String() != "valley-free" || DropTTL.String() != "ttl" ||
		DropReason(9).String() != "DropReason(9)" {
		t.Error("DropReason.String wrong")
	}
	if EBGP.String() != "eBGP" || IBGP.String() != "iBGP" || Host.String() != "host" ||
		PortKind(9).String() != "PortKind(9)" {
		t.Error("PortKind.String wrong")
	}
}

// Property: DeflectShare is monotone — a flow deflected at share s is also
// deflected at any share s' >= s.
func TestQuickDeflectShareMonotone(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, a, b float64) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		k := FlowKey{SrcAddr: src, DstAddr: dst, SrcPort: sp, DstPort: dp, Proto: 6}
		if DeflectShare(clamp01(lo))(k) && !DeflectShare(clamp01(hi))(k) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func BenchmarkForward(b *testing.B) {
	n, r, toZero := fig2aNet(b)
	r[1].SetQueueRatio(toZero[1], 1.0)
	_ = n
	p := &Packet{Flow: FlowKey{SrcAddr: 1, DstAddr: 0}, Dst: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TTL = 8
		r[1].Forward(p, -1)
	}
}

func BenchmarkSendEndToEnd(b *testing.B) {
	n, r, toZero := fig2aNet(b)
	r[1].SetQueueRatio(toZero[1], 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &Packet{Flow: FlowKey{SrcAddr: uint32(i), DstAddr: 0}, Dst: 0}
		n.Send(p, r[1].ID)
	}
}
