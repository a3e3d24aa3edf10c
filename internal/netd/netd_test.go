package netd

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/leakcheck"
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

// forEachPath runs a test over both receive paths a node can be on: the
// batched one NewFabric sets up where the kernel has the offloads, and the
// one-datagram fallback.
func forEachPath(t *testing.T, test func(t *testing.T, single bool)) {
	t.Run("batched", func(t *testing.T) { test(t, false) })
	t.Run("single", func(t *testing.T) { test(t, true) })
}

// newFabric binds a fabric over n without starting it. With single set,
// every node and the host sender are put on the fallback path the way
// they land there by themselves: a oneReader, and no UDP_SEGMENT sends.
// The host sender reads its run only after an Inject's queue send, which
// orders the write here before it.
func newFabric(t testing.TB, n *dataplane.Network, single bool) *Fabric {
	t.Helper()
	f, err := NewFabric(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	if single {
		for _, nd := range f.nodes {
			nd.rx, nd.tx.gso = &oneReader{conn: nd.conn}, false
		}
		f.host.gso = false
	}
	return f
}

func deployFig2a(t *testing.T, single bool) (*core.Deployment, *Fabric) {
	t.Helper()
	g := fig2aGraph(t)
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(bgp.Compute(g, 0))
	f := newFabric(t, dep.Net, single)
	f.Start()
	return dep, f
}

func awaitDelivery(t *testing.T, f *Fabric, timeout time.Duration) (Delivery, bool) {
	t.Helper()
	select {
	case d := <-f.Deliveries():
		return d, true
	case <-time.After(timeout):
		return Delivery{}, false
	}
}

// ended counts the packets whose journey is over: every outcome but
// Forwarded, which hands the packet to the next node.
func ended(s Stats) int64 { return outcomes(s) - s.Forwarded }

// injectWindowed calls inject(0) .. inject(n-1), each of which injects one
// packet, and keeps at most window of those packets in the fabric: packet
// i goes in once i-window+1 of them have ended. No socket buffer then ever
// holds more than window datagrams, whatever the host's speed, which is
// what the sleeps this replaces could only hope for.
func injectWindowed(t *testing.T, f *Fabric, n, window int, inject func(i int)) {
	t.Helper()
	base := ended(f.TotalStats())
	for i := 0; i < n; i++ {
		if i >= window {
			waitStats(t, f, func(s Stats) bool { return ended(s)-base > int64(i-window) })
		}
		inject(i)
	}
	waitStats(t, f, func(s Stats) bool { return ended(s)-base >= int64(n) })
}

// stream injects n packets the same way but paces on Deliveries, for
// fabrics that deliver every packet, and returns the deliveries in the
// order they came.
func stream(t *testing.T, f *Fabric, n, window int, inject func(i int)) []Delivery {
	t.Helper()
	got := make([]Delivery, 0, n)
	stall := time.NewTimer(10 * time.Second)
	defer stall.Stop()
	for sent := 0; len(got) < n; {
		for sent < n && sent-len(got) < window {
			inject(sent)
			sent++
		}
		select {
		case d := <-f.Deliveries():
			got = append(got, d)
		case <-stall.C:
			t.Fatalf("delivery %d of %d never came; totals: %+v", len(got), n, f.TotalStats())
		}
	}
	return got
}

func TestUDPDefaultDelivery(t *testing.T) { forEachPath(t, testUDPDefaultDelivery) }

func testUDPDefaultDelivery(t *testing.T, single bool) {
	dep, f := deployFig2a(t, single)
	p := &dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 1, DstAddr: dataplane.PrefixAddr(0), DstPort: 80, Proto: 6},
		Dst:  0,
	}
	f.Inject(p, dep.Routers(1)[0].ID)
	d, ok := awaitDelivery(t, f, 2*time.Second)
	if !ok {
		t.Fatal("packet never delivered over UDP")
	}
	if dep.Net.Router(d.At).AS != 0 {
		t.Fatalf("delivered at AS %d, want 0", dep.Net.Router(d.At).AS)
	}
	if d.Packet.Flow.SrcAddr != 1 || d.Packet.Dst != 0 {
		t.Fatalf("payload mangled: %+v", d.Packet)
	}
}

func TestUDPDeflectionAndTagCheck(t *testing.T) { forEachPath(t, testUDPDeflectionAndTagCheck) }

func testUDPDeflectionAndTagCheck(t *testing.T, single bool) {
	dep, f := deployFig2a(t, single)
	// Congest AS 1's default: its daemon installs the peer alternative.
	if err := dep.SetLinkLoad(1, 0, 1e9); err != nil {
		t.Fatal(err)
	}
	dep.Refresh()
	p := &dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 9, DstAddr: dataplane.PrefixAddr(0), DstPort: 80, Proto: 6},
		Dst:  0,
	}
	f.Inject(p, dep.Routers(1)[0].ID)
	d, ok := awaitDelivery(t, f, 2*time.Second)
	if !ok {
		t.Fatal("deflected packet never delivered")
	}
	if dep.Net.Router(d.At).AS != 0 {
		t.Fatalf("delivered at AS %d, want 0", dep.Net.Router(d.At).AS)
	}
	if got := f.StatsOf(dep.Routers(1)[0].ID).Deflected; got != 1 {
		t.Errorf("deflections at AS 1 = %d, want 1", got)
	}

	// Worst case: every default congested. The tag-check must drop the
	// packet at the second AS — across real sockets.
	for as := 1; as <= 3; as++ {
		dep.SetLinkLoad(as, 0, 1e9)
	}
	dep.Refresh()
	before := f.TotalStats()
	f.Inject(&dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 10, DstAddr: dataplane.PrefixAddr(0), DstPort: 81, Proto: 6},
		Dst:  0,
	}, dep.Routers(1)[0].ID)
	waitStats(t, f, func(s Stats) bool { return s.DropValleyFree > before.DropValleyFree })
	after := f.TotalStats()
	if after.DropTTL != before.DropTTL {
		t.Errorf("TTL drops rose from %d to %d: a loop happened", before.DropTTL, after.DropTTL)
	}
}

func TestUDPEncapAcrossIBGP(t *testing.T) { forEachPath(t, testUDPEncapAcrossIBGP) }

func testUDPEncapAcrossIBGP(t *testing.T, single bool) {
	// Expanded AS 0 (Fig. 2(c)): the deflection crosses iBGP with real
	// IP-in-IP datagrams between the two border routers' sockets.
	b := topo.NewBuilder(5)
	b.AddPC(1, 0).AddPC(2, 0).AddPC(3, 0)
	b.AddPC(1, 4).AddPC(2, 4).AddPC(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dep := core.NewDeployment(g, core.Config{ExpandASes: []int{0}})
	dep.InstallDestination(bgp.Compute(g, 4))
	if err := dep.SetLinkLoad(0, 1, 1e9); err != nil {
		t.Fatal(err)
	}
	dep.Refresh()
	f := newFabric(t, dep.Net, single)
	f.Start()

	egress, _, err := dep.EgressPort(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Inject(&dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 5, DstAddr: dataplane.PrefixAddr(4), DstPort: 80, Proto: 6},
		Dst:  4,
	}, egress.ID)
	d, ok := awaitDelivery(t, f, 2*time.Second)
	if !ok {
		t.Fatal("encapsulated packet never delivered")
	}
	if dep.Net.Router(d.At).AS != 4 {
		t.Fatalf("delivered at AS %d, want 4", dep.Net.Router(d.At).AS)
	}
	if d.Packet.Encap {
		t.Error("packet still encapsulated at delivery")
	}
	if got := f.TotalStats().Deflected; got < 2 {
		t.Errorf("deflections = %d, want encap hand-off plus exit", got)
	}
}

func TestUDPLoopFreedomUnderStress(t *testing.T) { forEachPath(t, testUDPLoopFreedomUnderStress) }

func testUDPLoopFreedomUnderStress(t *testing.T, single bool) {
	g, err := topo.Generate(topo.GenConfig{N: 60, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(bgp.Compute(g, 0))
	// Congest a third of all links.
	for v := 0; v < g.N(); v++ {
		for j, nb := range g.Neighbors(v) {
			if (v+j)%3 == 0 {
				dep.SetLinkLoad(v, int(nb.AS), 1e9)
			}
		}
	}
	dep.Refresh()
	f := newFabric(t, dep.Net, single)
	f.Start()

	// Every packet must terminate: delivered or dropped by the tag-check,
	// never by TTL (that would be a loop).
	const packets = 300
	injectWindowed(t, f, packets, 32, func(i int) {
		src := 1 + i%(g.N()-1)
		f.Inject(&dataplane.Packet{
			Flow: dataplane.FlowKey{SrcAddr: uint32(src), DstAddr: dataplane.PrefixAddr(0), SrcPort: uint16(i), Proto: 6},
			Dst:  0,
		}, dep.Routers(src)[0].ID)
	})
	s := f.TotalStats()
	if s.DropTTL != 0 {
		t.Fatalf("%d packets looped over UDP", s.DropTTL)
	}
	if s.Delivered == 0 {
		t.Fatal("nothing was delivered")
	}
	if s.ParseErrors != 0 {
		t.Fatalf("%d datagrams failed to parse", s.ParseErrors)
	}
}

// Garbage datagrams from outside must be counted and ignored, never crash
// a node or corrupt forwarding, and a well-formed packet from an address
// that is no peer must not be forwarded as if a host had sent it.
func TestUDPGarbageHardening(t *testing.T) { forEachPath(t, testUDPGarbageHardening) }

func testUDPGarbageHardening(t *testing.T, single bool) {
	dep, f := deployFig2a(t, single)
	target := dep.Routers(1)[0].ID
	conn, err := net.Dial("udp", f.Addr(target).String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	valid := dataplane.MarshalPacket(&dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 7, DstAddr: dataplane.PrefixAddr(0), Proto: 6},
		Dst:  0, TTL: 9,
	})
	payloads := [][]byte{
		{},
		{0x00},
		[]byte("not an ip packet at all, definitely"),
		bytes.Repeat([]byte{0x45}, 64),
		// Larger than a receive slot, and led by a packet that parses: cut
		// to the slot it must count as one datagram, not be split or read
		// as that packet.
		append(append([]byte{}, valid...), make([]byte, slotSize)...),
		make([]byte, 3*slotSize),
	}
	for _, p := range payloads {
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(valid); err != nil {
		t.Fatal(err)
	}
	waitStats(t, f, func(s Stats) bool { return s.Received == int64(len(payloads))+1 })
	want := Stats{Received: int64(len(payloads)) + 1, ParseErrors: int64(len(payloads)), DropUnknownSender: 1}
	if got := f.StatsOf(target); got != want {
		t.Fatalf("after garbage the node counts %+v, want %+v", got, want)
	}
	// The node still forwards fine afterwards.
	f.Inject(&dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 1, DstAddr: dataplane.PrefixAddr(0), Proto: 6},
		Dst:  0,
	}, target)
	if _, ok := awaitDelivery(t, f, 2*time.Second); !ok {
		t.Fatal("node stopped forwarding after garbage input")
	}
	if s := f.TotalStats(); outcomes(s) != s.Received+s.Injected {
		t.Fatalf("invariant broken: %+v", s)
	}
}

// Stop releases every socket, the host sender and the receive loops of a
// fabric whatever its state, once: a fabric never started, and one started
// and then stopped twice. A stopped fabric does not start again.
func TestStopReleasesEverything(t *testing.T) {
	n := deployChain(t).Net
	for _, start := range []bool{false, true} {
		before := runtime.NumGoroutine()
		f, err := NewFabric(n)
		if err != nil {
			t.Fatal(err)
		}
		if start {
			f.Start()
		}
		f.Stop()
		f.Stop()
		f.Start()
		for i, nd := range f.nodes {
			if err := nd.conn.SetDeadline(time.Time{}); !errors.Is(err, net.ErrClosed) {
				t.Errorf("started %v: router %d's socket is still open after Stop (%v)", start, i, err)
			}
		}
		if !waitFor(t, func() bool { return runtime.NumGoroutine() <= before }) {
			t.Errorf("started %v: %d goroutines before NewFabric, %d after Stop", start, before, runtime.NumGoroutine())
		}
	}
}

// Stop returns only once every receive loop has returned: a loop still
// reading after Stop would count into a fabric its owner has let go.
func TestStopWaitsForReceiveLoops(t *testing.T) {
	f := newFabric(t, deployChain(t).Net, false)
	gate := make(gateReader)
	f.nodes[0].rx = gate
	f.Start()
	stopped := make(chan struct{})
	go func() {
		f.Stop()
		close(stopped)
	}()
	for !leakcheck.Parked("sync.WaitGroup.Wait", "netd.(*Fabric).Stop") {
		select {
		case <-stopped:
			close(gate)
			t.Fatal("Stop returned while a receive loop was still reading")
		default:
			runtime.Gosched()
		}
	}
	close(gate)
	<-stopped
}

// gateReader's read blocks until the channel closes, then reports the
// socket closed.
type gateReader chan struct{}

func (g gateReader) read([]message) (int, error) {
	<-g
	return 0, net.ErrClosed
}

// What Inject queued before Stop leaves before the sockets close. Inject
// on a stopped fabric neither blocks nor panics, even past what the host
// queue holds: the packet is decided and counted, and its send fails, as a
// send on the closed socket does.
func TestInjectAfterStop(t *testing.T) {
	dep := deployChain(t)
	origin := dep.Routers(3)[0].ID
	// On one P the host sender has sent nothing when Stop begins.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, start := range []bool{false, true} {
		f := newFabric(t, dep.Net, false)
		if start {
			f.Start()
		}
		const before, after = maxRun, 2 * hostQueueLen
		for id := 1; id <= before+after; id++ {
			if id == before+1 {
				f.Stop()
			}
			f.Inject(chainPacket(id), origin)
		}
		want := Stats{Injected: before + after, Forwarded: before + after, SendErrors: after}
		if got := f.StatsOf(origin); got != want {
			t.Fatalf("started %v: the origin counts %+v, want %+v", start, got, want)
		}
	}
}

// A datagram whose send fails is counted at the node that sent it: a
// closed socket refuses every send. On the fallback path each datagram is
// its own send.
func TestFailedSendIsCounted(t *testing.T) {
	dep := deployChain(t)
	f := newFabric(t, dep.Net, true)
	origin := dep.Routers(3)[0].ID
	if err := f.nodes[origin].conn.Close(); err != nil {
		t.Fatal(err)
	}
	const packets = 3
	for id := 1; id <= packets; id++ {
		f.Inject(chainPacket(id), origin)
	}
	if !waitFor(t, func() bool { return f.StatsOf(origin).SendErrors == packets }) {
		t.Fatalf("origin counts %+v, want %d send errors", f.StatsOf(origin), packets)
	}
}

// waitFor polls cond until it holds. The fabric has no event that says a
// counter moved, so this poll is the one sleep of the package's tests:
// every wait goes through it and nothing paces traffic with a sleep.
func waitFor(t *testing.T, cond func() bool) bool {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

func waitStats(t *testing.T, f *Fabric, cond func(Stats) bool) {
	t.Helper()
	if !waitFor(t, func() bool { return cond(f.TotalStats()) }) {
		t.Fatalf("stats condition not reached; totals: %+v", f.TotalStats())
	}
}
