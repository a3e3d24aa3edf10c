package netd

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/topo"
)

// deployChain is AS 3 over AS 2 over AS 1 over AS 0, each the provider of
// the next, with destination 0 installed: a packet injected at AS 3 takes
// three UDP hops, two of them through a receive loop that forwards.
func deployChain(t testing.TB) *core.Deployment {
	t.Helper()
	g, err := topo.NewBuilder(4).AddPC(1, 0).AddPC(2, 1).AddPC(3, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(bgp.Compute(g, 0))
	return dep
}

func chainPacket(id int) *dataplane.Packet {
	return &dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 3, DstAddr: dataplane.PrefixAddr(0), DstPort: 80, Proto: 6},
		ID:   uint16(id),
		Dst:  0,
	}
}

// coalescedRun is what GRO hands over for a run of four packets in segments
// of MaxWireLen: three IP-in-IP packets from router src addressed to router
// dst, IDs 1 to 3, and a plain one, ID 4, as the shorter last segment.
func coalescedRun(src, dst dataplane.RouterID) []byte {
	var run []byte
	for id := 1; id <= 4; id++ {
		p := chainPacket(id)
		p.TTL = 9
		if id < 4 {
			p.Encap, p.OuterSrc, p.OuterDst = true, src, dst
		}
		run = dataplane.AppendPacket(run, p)
	}
	return run
}

// byHand prepares nodes of a fabric that is not started for a test that
// reads their sockets itself: a read that finds nothing fails the test
// where it would otherwise hang it.
func byHand(t *testing.T, nodes ...*node) {
	t.Helper()
	for _, nd := range nodes {
		if err := nd.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
}

// One flow keeps its order across three hops, however the receive loops
// cut it into batches and runs.
func TestFlowOrderAcrossHops(t *testing.T) { forEachPath(t, testFlowOrderAcrossHops) }

func testFlowOrderAcrossHops(t *testing.T, single bool) {
	dep := deployChain(t)
	f := newFabric(t, dep.Net, single)
	f.Start()
	origin := dep.Routers(3)[0].ID
	const packets = 2000
	got := stream(t, f, packets, 48, func(i int) { f.Inject(chainPacket(i+1), origin) })
	for i, d := range got {
		if int(d.Packet.ID) != i+1 {
			t.Fatalf("delivery %d carries ID %d: the flow was reordered", i, d.Packet.ID)
		}
	}
	s := f.TotalStats()
	if s.Received != 3*packets || s.Forwarded != 3*packets || s.Delivered != packets {
		t.Fatalf("%d packets over three hops, but the fabric counts %+v", packets, s)
	}
}

// A border router whose egress is congested for every second flow sends
// plain packets out of one port and IP-in-IP packets out of another,
// alternately. A run has to end at each change, and each port's datagrams
// have to leave in the order their packets arrived.
func TestAlternatingPortsKeepOrder(t *testing.T) { forEachPath(t, testAlternatingPortsKeepOrder) }

func testAlternatingPortsKeepOrder(t *testing.T, single bool) {
	// Fig. 2(c) with a customer below AS 0, so that AS 0's egress router
	// gets its packets from a socket: 5 -> 0 -> {1 | 0' -> 2} -> 4.
	g, err := topo.NewBuilder(6).
		AddPC(1, 0).AddPC(2, 0).AddPC(3, 0).
		AddPC(1, 4).AddPC(2, 4).AddPC(3, 4).
		AddPC(0, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	dep := core.NewDeployment(g, core.Config{ExpandASes: []int{0}})
	dep.InstallDestination(bgp.Compute(g, 4))
	if err = dep.SetLinkLoad(0, 1, 1e9); err != nil {
		t.Fatal(err)
	}
	dep.Refresh()
	egress, _, err := dep.EgressPort(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	egress.Deflect = func(k dataplane.FlowKey) bool { return k.SrcPort%2 == 1 }
	f := newFabric(t, dep.Net, single)
	f.Start()

	origin := dep.Routers(5)[0].ID
	const packets = 1000
	got := stream(t, f, packets, 48, func(i int) {
		f.Inject(&dataplane.Packet{
			Flow: dataplane.FlowKey{SrcAddr: 5, DstAddr: dataplane.PrefixAddr(4), SrcPort: uint16(i), Proto: 6},
			ID:   uint16(i + 1),
			Dst:  4,
		}, origin)
	})
	next := [2]int{0, 1} // the next SrcPort due on the plain and on the deflected path
	for _, d := range got {
		path := d.Packet.Flow.SrcPort % 2
		if int(d.Packet.Flow.SrcPort) != next[path] || d.Packet.Encap {
			t.Fatalf("path %d delivered packet %d (%+v), due was %d", path, d.Packet.Flow.SrcPort, d.Packet, next[path])
		}
		next[path] += 2
	}
	es := f.StatsOf(egress.ID)
	if es.Received != packets || es.Forwarded != packets || es.Deflected != packets/2 {
		t.Fatalf("the egress router should have deflected every second of %d packets: %+v", packets, es)
	}
}

// What GRO hands over as one message is as many datagrams as it has
// segments, the short last one included, and an unparsable segment costs
// only itself.
func TestReceiveSplitsCoalescedMessage(t *testing.T) {
	dep := deployChain(t)
	f := newFabric(t, dep.Net, false)
	mid, next := dep.Routers(2)[0].ID, dep.Routers(1)[0].ID
	nd := f.nodes[mid]

	data := coalescedRun(dep.Routers(3)[0].ID, mid)
	data[dataplane.MaxWireLen] ^= 0xFF // damage the second segment's version nibble
	from := f.Addr(dep.Routers(3)[0].ID).AddrPort()
	m := message{data: data, from: from, seg: dataplane.MaxWireLen}
	if n := f.receive(nd, &m); n != 4 {
		t.Fatalf("receive saw %d datagrams in a message of 4 segments", n)
	}
	nd.flush()
	want := Stats{Received: 4, ParseErrors: 1, Forwarded: 3}
	if got := f.StatsOf(mid); got != want {
		t.Fatalf("node counts %+v, want %+v", got, want)
	}

	// All three left decapsulated, in order, towards AS 1.
	msgs := make([]message, maxBatch)
	byHand(t, f.nodes[next])
	ids := []uint16{}
	for len(ids) < 3 {
		n, err := f.nodes[next].rx.read(msgs)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs[:n] {
			seg := m.seg
			if seg == 0 {
				seg = len(m.data)
			}
			for d := m.data; len(d) > 0; d = d[seg:] {
				p, err := dataplane.UnmarshalPacket(d[:seg])
				if err != nil || p.Encap {
					t.Fatalf("forwarded datagram %x: packet %+v, error %v", d[:seg], p, err)
				}
				ids = append(ids, p.ID)
			}
		}
	}
	if ids[0] != 1 || ids[1] != 3 || ids[2] != 4 {
		t.Fatalf("forwarded IDs %v, want [1 3 4]", ids)
	}
}

// A UDP_SEGMENT send that fails costs no packet: the run goes out again
// datagram by datagram, is counted, and that node alone stops segmenting.
func TestFailedSegmentSendFallsBack(t *testing.T) {
	dep := deployChain(t)
	f := newFabric(t, dep.Net, false)
	origin, mid, next := dep.Routers(3)[0].ID, dep.Routers(2)[0].ID, dep.Routers(1)[0].ID
	nd := f.nodes[mid]
	if !nd.gso {
		t.Skip("no UDP_SEGMENT on this platform: nodes never send a run")
	}
	refused := errors.New("segmentation refused")
	calls := 0
	nd.writeRun = func(_, _ []byte, _ netip.AddrPort) (int, int, error) {
		calls++
		return 0, 0, refused
	}

	// Not started, the fabric is stepped by hand: five datagrams wait on
	// the node's socket when it reads, so they make one batch and one run.
	const packets = 5
	for id := 1; id <= packets; id++ {
		f.Inject(chainPacket(id), origin)
	}
	msgs := make([]message, maxBatch)
	byHand(t, f.nodes...)
	if err := f.step(nd, msgs); err != nil {
		t.Fatal(err)
	}
	if s := f.StatsOf(mid); s.Forwarded != packets || s.SendErrors != packets || calls != 1 {
		t.Fatalf("one failed run of %d: %d segment sends, node counts %+v", packets, calls, s)
	}
	if nd.gso {
		t.Error("the node still segments after a failed send")
	}
	if !f.nodes[next].gso {
		t.Error("another node lost segmentation to this node's failure")
	}

	// The five are on the next node's socket as five datagrams, in order.
	for _, id := range []dataplane.RouterID{next, dep.Routers(0)[0].ID} {
		for f.StatsOf(id).Received < packets {
			if err := f.step(f.nodes[id], msgs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := 1; id <= packets; id++ {
		if d := <-f.Deliveries(); int(d.Packet.ID) != id {
			t.Fatalf("delivery %d carries ID %d", id, d.Packet.ID)
		}
	}

	// From now on the node sends singly and nothing fails.
	for id := 1; id <= packets; id++ {
		f.Inject(chainPacket(id), origin)
	}
	if err := f.step(nd, msgs); err != nil {
		t.Fatal(err)
	}
	if s := f.StatsOf(mid); s.Forwarded != 2*packets || s.SendErrors != packets || calls != 1 {
		t.Fatalf("after the fallback: %d segment sends, node counts %+v", calls, s)
	}
}

// In steady state the fabric allocates what Inject's marshal allocates on
// the caller's goroutine and nothing else: receive loops parse into a
// packet they own and marshal into a run they own.
func TestReceivePathAllocatesNothing(t *testing.T) { forEachPath(t, testReceivePathAllocatesNothing) }

func testReceivePathAllocatesNothing(t *testing.T, single bool) {
	dep := deployChain(t)
	f := newFabric(t, dep.Net, single)
	f.Start()
	origin := dep.Routers(2)[0].ID // two hops to AS 0
	p := chainPacket(0)
	const burst = 16
	round := func() {
		for i := 0; i < burst; i++ {
			*p = dataplane.Packet{Flow: p.Flow, ID: uint16(i + 1)}
			f.Inject(p, origin)
		}
		for i := 0; i < burst; i++ {
			<-f.Deliveries()
		}
	}
	round() // the first packets grow what later ones reuse
	// One allocation, two where the race detector keeps the compiler from
	// inlining the marshal's helpers.
	var wire []byte
	marshal := testing.AllocsPerRun(200, func() { wire = dataplane.MarshalPacket(p) })
	if got := testing.AllocsPerRun(200, round); len(wire) == 0 || got != burst*marshal {
		t.Fatalf("%v allocations per %d packets over two hops, and %v per marshal", got, burst, marshal)
	}
}
