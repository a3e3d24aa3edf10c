package packetsim

import (
	"bytes"
	"testing"

	"repro/internal/audit"
	"repro/internal/dataplane"
	"repro/internal/topo"
)

// TestFlightRecorderAuditsPacketRun drives the emergent-deflection MIFO
// scenario with a recorder at 100% sampling and checks the acceptance
// properties at packet granularity: zero invariant violations, and the
// deflection count reconstructed from JSONL alone equals the deflected
// decisions the routers' Hop hooks reported.
func TestFlightRecorderAuditsPacketRun(t *testing.T) {
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
		r.MIFOEnabled = true
		r.CongestionThreshold = 0.5
	}
	r1.Deflect = dataplane.DeflectShare(0.5)

	var buf bytes.Buffer
	// The sim bursts hops faster than the batcher encodes them; size the
	// rings for the whole run so the shed policy never fires and the
	// exact-count assertions below hold.
	rec := audit.NewRecorder(audit.Options{Writer: &buf, SegmentCap: 1 << 13})
	sim := New(n, Config{Recorder: rec})
	// Count deflected decisions through a hook wrapped around the one New
	// installed: the sim's event loop is single-threaded.
	var hookDeflections int64
	for _, r := range n.Routers {
		inner := r.Hop
		r.Hop = func(p *dataplane.Packet, h dataplane.HopInfo) {
			if h.Deflected {
				hookDeflections++
			}
			inner(p, h)
		}
	}
	for _, k := range []dataplane.FlowKey{
		{SrcAddr: 1, DstAddr: 4, SrcPort: 2, Proto: 6},
		{SrcAddr: 1, DstAddr: 4, SrcPort: 1, Proto: 6},
	} {
		sim.AddFlow(FlowSpec{Key: k, Origin: r1.ID, Dst: 4, SizeBytes: 3_000_000, After: -1})
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	deflPkts := res.Flows[0].DeflectedPkts + res.Flows[1].DeflectedPkts
	if deflPkts == 0 {
		t.Fatal("scenario drifted: no deflected packets")
	}

	st := rec.Stats()
	if st.RingDropped != 0 {
		t.Fatalf("rings shed %d records despite workload-sized capacity", st.RingDropped)
	}
	if st.Violations != 0 {
		t.Fatalf("invariant violations in a correct MIFO run: %+v\nrecords: %+v",
			st, rec.ViolatingRecords())
	}
	if hookDeflections == 0 || int64(st.Deflections) != hookDeflections {
		t.Fatalf("recorder saw %d deflected steps, the hop hooks %d",
			st.Deflections, hookDeflections)
	}

	sum, err := audit.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(sum.TotalDeflections) != hookDeflections {
		t.Fatalf("JSONL reconstructs %d deflections, the hop hooks %d",
			sum.TotalDeflections, hookDeflections)
	}
	if sum.TotalViolations != 0 {
		t.Fatalf("JSONL carries violations: %v", sum.Violations)
	}
	// Every delivered payload packet must have a delivered journey. Queue
	// drops appear as lost records; retransmissions start fresh journeys.
	delivered := res.Flows[0].DeliveredPkts + res.Flows[1].DeliveredPkts
	if int(st.Delivered) < delivered {
		t.Fatalf("recorder finalized %d delivered journeys, sim delivered %d packets",
			st.Delivered, delivered)
	}
	queueDrops := res.Flows[0].QueueDrops + res.Flows[1].QueueDrops
	if int(st.Lost) != queueDrops {
		t.Fatalf("recorder counted %d lost journeys, sim dropped %d at queues",
			st.Lost, queueDrops)
	}
}

// TestFlightRecorderSamplingIsPerFlow: with one flow sampled out, its
// packets leave no records while the other flow's journeys are complete.
func TestFlightRecorderSamplingIsPerFlow(t *testing.T) {
	n, a, _ := line(t)
	keys := []dataplane.FlowKey{
		{SrcAddr: 1, DstAddr: 2, SrcPort: 1, Proto: 6},
		{SrcAddr: 1, DstAddr: 2, SrcPort: 2, Proto: 6},
	}
	// Pick a rate that keeps exactly one of the two flows.
	var sample float64
	h0, h1 := keys[0].Hash(), keys[1].Hash()
	lo, hi := h0, h1
	if lo > hi {
		lo, hi = hi, lo
	}
	sample = (float64(lo) + 1) / float64(^uint32(0))
	rec := audit.NewRecorder(audit.Options{Sample: sample})
	sim := New(n, Config{Recorder: rec})
	for _, k := range keys {
		sim.AddFlow(FlowSpec{Key: k, Origin: a.ID, Dst: 2, SizeBytes: 100_000, After: -1})
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	keptDelivered := res.Flows[0].DeliveredPkts
	if h1 == lo {
		keptDelivered = res.Flows[1].DeliveredPkts
	}
	st := rec.Stats()
	if int(st.Delivered) < keptDelivered || st.Records == 0 {
		t.Fatalf("sampled flow under-recorded: stats %+v, want >= %d delivered", st, keptDelivered)
	}
	// Both flows delivered the same payload; if the unsampled one had been
	// recorded too, Delivered would be ~2x keptDelivered.
	if int(st.Delivered) > keptDelivered+keptDelivered/2 {
		t.Fatalf("unsampled flow leaked into the recorder: %+v", st)
	}
}
