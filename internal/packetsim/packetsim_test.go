package packetsim

import (
	"math"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/topo"
)

const gbps = 1e9

// line builds a two-router chain: src router (AS 1) -> dst router (AS 2)
// delivering prefix 2.
func line(t testing.TB) (*dataplane.Network, *dataplane.Router, *dataplane.Router) {
	t.Helper()
	n := dataplane.NewNetwork()
	a := n.AddRouter(1)
	b := n.AddRouter(2)
	pab, _ := n.Connect(a.ID, b.ID, dataplane.EBGP, topo.Customer, gbps)
	a.FIB.Set(2, dataplane.FIBEntry{Out: pab, Alt: -1, AltVia: -1})
	b.Local[2] = true
	return n, a, b
}

func TestSingleFlowGoodput(t *testing.T) {
	n, a, _ := line(t)
	sim := New(n, nil)
	sim.AddFlow(FlowSpec{
		Key:    dataplane.FlowKey{SrcAddr: 1, DstAddr: 2, Proto: 6},
		Origin: a.ID, Dst: 2, SizeBytes: 2_000_000, After: -1,
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.Aborted || f.DeliveredPkts != 2000 {
		t.Fatalf("flow = %+v", f)
	}
	// Goodput ~ payload/wire fraction of line rate: 1000/1066 ≈ 0.938 Gbps.
	want := gbps * 1000 / 1066
	if f.GoodputBps < 0.85*want || f.GoodputBps > 1.01*want {
		t.Errorf("goodput = %.0f, want ~%.0f", f.GoodputBps, want)
	}
	// Slow start may overshoot the queue once — classic TCP — but a lone
	// flow on a clean path must not suffer sustained loss.
	if f.Retransmits > 5 || f.HardDrops != 0 {
		t.Errorf("single flow lost too much: %+v", f)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	n, a, _ := line(t)
	sim := New(n, nil)
	for i := 0; i < 2; i++ {
		sim.AddFlow(FlowSpec{
			Key:    dataplane.FlowKey{SrcAddr: uint32(i + 10), DstAddr: 2, SrcPort: uint16(i), Proto: 6},
			Origin: a.ID, Dst: 2, SizeBytes: 2_000_000, After: -1,
		})
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if f.Aborted {
			t.Fatalf("flow aborted: %+v", f)
		}
		// Two TCP-like flows race; neither may starve or exceed the wire.
		if f.GoodputBps < 0.15*gbps || f.GoodputBps > 0.95*gbps {
			t.Errorf("flow goodput = %.0f, want a plausible share of the link", f.GoodputBps)
		}
	}
	// The link itself must be near fully used while both flows are active:
	// total payload divided by the last finish time.
	if res.MeanAggregateGbps < 0.70 || res.MeanAggregateGbps > 0.94 {
		t.Errorf("aggregate = %v Gbps, want close to goodput capacity", res.MeanAggregateGbps)
	}
}

func TestSequentialFlows(t *testing.T) {
	n, a, _ := line(t)
	sim := New(n, nil)
	first := sim.AddFlow(FlowSpec{
		Key:    dataplane.FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 0, Proto: 6},
		Origin: a.ID, Dst: 2, SizeBytes: 500_000, After: -1,
	})
	sim.AddFlow(FlowSpec{
		Key:    dataplane.FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 1, Proto: 6},
		Origin: a.ID, Dst: 2, SizeBytes: 500_000, After: first,
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[1].Start < res.Flows[0].Finish {
		t.Errorf("flow 1 started at %v before flow 0 finished at %v",
			res.Flows[1].Start, res.Flows[0].Finish)
	}
}

func TestUnroutableFlowAborts(t *testing.T) {
	n := dataplane.NewNetwork()
	a := n.AddRouter(1) // no FIB entry at all
	sim := New(n, nil)
	sim.maxHardDrops = 8
	sim.AddFlow(FlowSpec{
		Key:    dataplane.FlowKey{SrcAddr: 1, DstAddr: 9, Proto: 6},
		Origin: a.ID, Dst: 9, SizeBytes: 100_000, After: -1,
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[0].Aborted {
		t.Fatalf("flow should abort on persistent no-route drops: %+v", res.Flows[0])
	}
	if res.Flows[0].HardDrops < 8 {
		t.Errorf("hard drops = %d, want >= limit", res.Flows[0].HardDrops)
	}
}

func TestInvalidAfter(t *testing.T) {
	n, a, _ := line(t)
	sim := New(n, nil)
	sim.AddFlow(FlowSpec{
		Key:    dataplane.FlowKey{SrcAddr: 1, DstAddr: 2, Proto: 6},
		Origin: a.ID, Dst: 2, SizeBytes: 1000, After: 5,
	})
	if _, err := sim.Run(); err == nil {
		t.Fatal("invalid After must error")
	}
}

func TestEmptyRun(t *testing.T) {
	n, _, _ := line(t)
	sim := New(n, nil)
	res, err := sim.Run()
	if err != nil || len(res.Flows) != 0 {
		t.Fatalf("empty run: %v, %v", res, err)
	}
}

// Queue-driven deflection: two concurrent flows on a topology with an
// alternative path; with MIFO the queue occupancy itself triggers the
// deflection, and aggregate goodput rises well above one link's worth.
func TestEmergentDeflection(t *testing.T) {
	build := func(mifo bool) (*dataplane.Network, *dataplane.Router) {
		// AS 1 --(default)--> AS 2 --> dst AS 4
		//    \--(alt)-------> AS 3 --> dst AS 4
		n := dataplane.NewNetwork()
		r1 := n.AddRouter(1)
		r2 := n.AddRouter(2)
		r3 := n.AddRouter(3)
		r4 := n.AddRouter(4)
		p12, _ := n.Connect(r1.ID, r2.ID, dataplane.EBGP, topo.Customer, gbps)
		p13, _ := n.Connect(r1.ID, r3.ID, dataplane.EBGP, topo.Customer, gbps)
		p24, _ := n.Connect(r2.ID, r4.ID, dataplane.EBGP, topo.Customer, gbps)
		p34, _ := n.Connect(r3.ID, r4.ID, dataplane.EBGP, topo.Customer, gbps)
		r4.Local[4] = true
		r1.FIB.Set(4, dataplane.FIBEntry{Out: p12, Alt: p13, AltVia: r3.ID})
		r2.FIB.Set(4, dataplane.FIBEntry{Out: p24, Alt: -1, AltVia: -1})
		r3.FIB.Set(4, dataplane.FIBEntry{Out: p34, Alt: -1, AltVia: -1})
		for _, r := range n.Routers {
			r.MIFOEnabled = mifo
			r.CongestionThreshold = 0.5
		}
		r1.Deflect = dataplane.DeflectShare(0.5)
		return n, r1
	}
	run := func(mifo bool) float64 {
		n, r1 := build(mifo)
		sim := New(n, nil)
		// Keys chosen so one hashes below the 50% share and one above.
		keys := []dataplane.FlowKey{
			{SrcAddr: 1, DstAddr: 4, SrcPort: 2, Proto: 6},
			{SrcAddr: 1, DstAddr: 4, SrcPort: 1, Proto: 6},
		}
		limit := dataplane.DeflectShare(0.5)
		if limit(keys[0]) == limit(keys[1]) {
			t.Fatalf("test keys hash to the same side; pick different ports")
		}
		for _, k := range keys {
			sim.AddFlow(FlowSpec{Key: k, Origin: r1.ID, Dst: 4, SizeBytes: 3_000_000, After: -1})
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, f := range res.Flows {
			if f.Aborted {
				t.Fatalf("aborted: %+v", f)
			}
			sum += f.GoodputBps
		}
		if mifo {
			defl := res.Flows[0].DeflectedPkts + res.Flows[1].DeflectedPkts
			if defl == 0 {
				t.Fatal("MIFO run never deflected a packet")
			}
		}
		return sum
	}
	bgp := run(false)
	mifo := run(true)
	if mifo < 1.25*bgp {
		t.Errorf("MIFO aggregate %.2e should clearly beat BGP %.2e", mifo, bgp)
	}
	if bgp > 0.95*gbps {
		t.Errorf("BGP aggregate %.2e should be capped by the single default link", bgp)
	}
}

func TestAggregateSeriesSane(t *testing.T) {
	n, a, _ := line(t)
	sim := New(n, nil)
	sim.AddFlow(FlowSpec{
		Key:    dataplane.FlowKey{SrcAddr: 1, DstAddr: 2, Proto: 6},
		Origin: a.ID, Dst: 2, SizeBytes: 30_000_000, After: -1,
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggregate.Rows) == 0 {
		t.Fatal("no aggregate samples")
	}
	for _, r := range res.Aggregate.Rows {
		if r.Y < 0 || r.Y > 1.01 {
			t.Fatalf("aggregate sample %v outside [0, line rate]", r)
		}
	}
	if math.Abs(res.MeanAggregateGbps-0.9) > 0.15 {
		t.Errorf("mean aggregate = %v, want ~0.94", res.MeanAggregateGbps)
	}
}

func BenchmarkPacketLevel2MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, a, _ := line(b)
		sim := New(n, nil)
		sim.AddFlow(FlowSpec{
			Key:    dataplane.FlowKey{SrcAddr: 1, DstAddr: 2, Proto: 6},
			Origin: a.ID, Dst: 2, SizeBytes: 2_000_000, After: -1,
		})
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
