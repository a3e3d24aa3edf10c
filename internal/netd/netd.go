// Package netd runs a dataplane.Network as a distributed system: every
// router becomes a goroutine with its own UDP socket on the loopback
// interface, packets travel between routers as real IPv4 datagrams
// (dataplane.MarshalPacket), and the forwarding engine — tag-check,
// IP-in-IP hand-off, FIB lookups — executes on the receive path of each
// node.
//
// Together with core.Runtime (daemon goroutines updating FIBs) this is the
// in-process analog of the paper's prototype: forwarding engine in the
// kernel, MIFO daemon beside it, real packets in between (Section V).
package netd

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/obs"
)

// Delivery is a packet that reached its destination AS.
type Delivery struct {
	// Packet is the delivered (decapsulated) packet.
	Packet dataplane.Packet
	// At is the router that delivered it.
	At dataplane.RouterID
}

// Stats aggregates a node's counters.
type Stats struct {
	// Received counts datagrams that arrived on the node's socket;
	// Injected counts packets originated locally through Inject. Every
	// received or injected packet ends in exactly one of the outcome
	// counters below, so
	//
	//	Received + Injected ==
	//	    Forwarded + Delivered + drops + ParseErrors
	//
	// holds at quiescence (the invariant TestStatsInvariantUnderLoad
	// asserts under -race), drops being DropNoRoute + DropValleyFree +
	// DropTTL + DropUnknownSender. A datagram GRO delivered inside a
	// coalesced message counts as one Received, like any other.
	Received  int64
	Injected  int64
	Forwarded int64
	// Deflected and SendErrors are sub-counts of Forwarded: packets sent
	// on the alternative path, and packets whose send returned an error
	// (a failed UDP_SEGMENT run adds its whole length, although it is then
	// resent datagram by datagram; a packet injected into a stopped fabric
	// adds one, as its send on the closed socket would).
	Deflected  int64
	SendErrors int64
	Delivered  int64
	// DeliveriesDropped is the sub-count of Delivered that found the
	// Deliveries channel full.
	DeliveriesDropped                    int64
	DropNoRoute, DropValleyFree, DropTTL int64
	// DropUnknownSender counts well-formed datagrams from an address that
	// is no peer of the node. Forwarding one as host traffic would
	// re-stamp its tag and void the valley-free argument for it.
	DropUnknownSender int64
	ParseErrors       int64
}

// node is one router's networked incarnation. Its counters are handles
// into the fabric's metrics registry (label router="<id>"), resolved once
// at construction so the receive path never touches the registry's locks.
type node struct {
	router *dataplane.Router
	conn   *net.UDPConn
	// peerAddr[port] is the UDP address of the router on the other side;
	// the zero AddrPort marks a port with no peer.
	peerAddr []netip.AddrPort
	// portBySender resolves an incoming datagram's source address to the
	// local port it arrived on.
	portBySender map[netip.AddrPort]int
	// txBytes counts bytes written per port, sampled by the link monitor.
	txBytes []atomic.Int64

	received, injected, forwarded, deflected, delivered *obs.Counter
	sendErrors, deliveriesDropped                       *obs.Counter
	dropNoRoute, dropValleyFree, dropTTL                *obs.Counter
	dropUnknownSender, parseErrors                      *obs.Counter
	// procLatency is the node's receive-path processing time: unmarshal
	// plus forwarding decision plus transmit, averaged over a receive
	// batch.
	procLatency *obs.Histogram

	// What follows belongs to the node's serve goroutine alone.

	// rx is how the node reads its socket: a batchReader, or a oneReader
	// where newReader could not switch GRO on.
	rx reader
	// pkt is the packet every received datagram is parsed into.
	pkt dataplane.Packet
	// tx is the run of forwarded packets not sent yet.
	tx run
}

// run is the wire bytes of datagrams not sent yet: consecutive ones that
// node nd sends out of port, all seg bytes long. A node's receive loop owns
// one for what it forwards and the host sender one for what Inject
// originates at any node; flush is where both leave.
type run struct {
	nd        *node
	buf       []byte
	port, seg int
	// gso says runs of more than one datagram leave in a single
	// UDP_SEGMENT send. It starts as what newReader observed (for the host
	// sender's run, at every node) and goes off for good the first time
	// such a send fails.
	gso bool
	// oob is the control buffer of a UDP_SEGMENT send.
	oob [oobSpace]byte
	// writeRun is (*net.UDPConn).WriteMsgUDPAddrPort; a test substitutes a
	// failing send.
	writeRun func(c *net.UDPConn, b, oob []byte, addr netip.AddrPort) (n, oobn int, err error)
}

func newRun() run {
	return run{buf: make([]byte, 0, slotSize), writeRun: (*net.UDPConn).WriteMsgUDPAddrPort}
}

// hostDatagram is a packet Inject has decided and marshaled, on its way to
// the host sender.
type hostDatagram struct {
	nd   *node
	port int
	wire []byte
}

// Fabric wires and runs all nodes of a network.
type Fabric struct {
	Net   *dataplane.Network
	nodes []*node

	reg      *obs.Registry
	linkRate *obs.GaugeVec

	deliveries chan Delivery
	wg         sync.WaitGroup
	started    bool
	mu         sync.Mutex
	// quit is closed once, by Stop: closed, it is the fabric's stopped
	// state, which Start and Inject read.
	quit chan struct{}

	// hostq carries Inject's datagrams to the host sender, which owns host
	// and closes hostDone when it has sent the last of them.
	hostq    chan hostDatagram
	host     run
	hostDone chan struct{}

	recorder *audit.Recorder
	// nextPktID stamps injected packets that carry no ID of their own, so
	// the flight recorder can stitch each packet's hops — observed at
	// different nodes — into one journey. The ID rides in the IPv4
	// Identification field of the marshaled datagram.
	nextPktID atomic.Uint32
}

// NewFabric binds one loopback UDP socket per router, cross-wires peer
// addresses according to the network's ports and starts the host sender,
// so Inject works from here on. Call Start to begin serving, and Stop,
// started or not, to release the sockets and goroutines.
func NewFabric(n *dataplane.Network) (*Fabric, error) {
	f := &Fabric{
		Net:        n,
		deliveries: make(chan Delivery, 1024),
		reg:        obs.NewRegistry(),
		quit:       make(chan struct{}),
		hostq:      make(chan hostDatagram, hostQueueLen),
		host:       newRun(),
		hostDone:   make(chan struct{}),
	}
	// The host sender sends from every node's socket, so it segments where
	// all of them can.
	f.host.gso = true
	recv := f.reg.CounterVec("netd_received_total", "datagrams received on the node's UDP socket", "router")
	inj := f.reg.CounterVec("netd_injected_total", "packets originated locally via Inject", "router")
	fwd := f.reg.CounterVec("netd_forwarded_total", "packets sent towards a peer router", "router")
	defl := f.reg.CounterVec("netd_deflected_total", "packets forwarded on the alternative path", "router")
	delv := f.reg.CounterVec("netd_delivered_total", "packets delivered at their destination AS", "router")
	drops := f.reg.CounterVec("netd_drops_total", "packets discarded, by reason", "router", "reason")
	perr := f.reg.CounterVec("netd_parse_errors_total", "datagrams that failed to unmarshal", "router")
	serr := f.reg.CounterVec("netd_send_errors_total", "forwarded packets whose send returned an error; a failed UDP_SEGMENT run counts whole", "router")
	ddrop := f.reg.CounterVec("netd_deliveries_dropped_total", "delivered packets that found the Deliveries channel full", "router")
	lat := f.reg.HistogramVec("netd_process_seconds", "receive-path processing time per datagram: one observation per receive batch, batch time / datagrams in it", obs.DurationBuckets, "router")
	f.linkRate = f.reg.GaugeVec("netd_link_rate_bps", "EWMA-smoothed transmit rate per port (bits/s), from the link monitor", "router", "port")
	f.nodes = make([]*node, len(n.Routers))
	for i, r := range n.Routers {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			f.closeAll()
			return nil, fmt.Errorf("netd: bind router %d: %w", i, err)
		}
		id := strconv.Itoa(i)
		nd := &node{
			router:            r,
			conn:              conn,
			peerAddr:          make([]netip.AddrPort, len(r.Ports)),
			portBySender:      make(map[netip.AddrPort]int, len(r.Ports)),
			txBytes:           make([]atomic.Int64, len(r.Ports)),
			received:          recv.With(id),
			injected:          inj.With(id),
			forwarded:         fwd.With(id),
			deflected:         defl.With(id),
			delivered:         delv.With(id),
			sendErrors:        serr.With(id),
			deliveriesDropped: ddrop.With(id),
			dropNoRoute:       drops.With(id, "no_route"),
			dropValleyFree:    drops.With(id, "valley_free"),
			dropTTL:           drops.With(id, "ttl"),
			dropUnknownSender: drops.With(id, "unknown_sender"),
			parseErrors:       perr.With(id),
			procLatency:       lat.With(id),
			tx:                newRun(),
		}
		nd.rx, nd.tx.gso = newReader(conn)
		f.host.gso = f.host.gso && nd.tx.gso
		f.nodes[i] = nd
	}
	// Second pass: every port learns its peer's socket address.
	for i, nd := range f.nodes {
		r := n.Routers[i]
		for pi := range r.Ports {
			port := &r.Ports[pi]
			if port.Peer < 0 {
				continue
			}
			peer := f.Addr(port.Peer).AddrPort()
			peer = netip.AddrPortFrom(peer.Addr().Unmap(), peer.Port())
			nd.peerAddr[pi] = peer
			nd.portBySender[peer] = pi
		}
	}
	go f.sendHost()
	return f, nil
}

// closeAll closes every socket bound so far. Each is closed once: by Stop,
// or by NewFabric when a later bind failed.
func (f *Fabric) closeAll() {
	for _, nd := range f.nodes {
		if nd != nil {
			nd.conn.Close() // a UDP socket's close flushes nothing: no error to act on
		}
	}
}

// Start launches every node's receive loop. On a fabric already started
// or stopped it does nothing.
func (f *Fabric) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started || f.stopped() {
		return
	}
	f.started = true
	for _, nd := range f.nodes {
		f.wg.Add(1)
		go f.serve(nd)
	}
}

// Stop sends what Inject has queued, closes every socket and waits for
// the host sender and the receive loops to exit. It does this once,
// whether or not the fabric was started; later calls return at once.
func (f *Fabric) Stop() {
	f.mu.Lock()
	if f.stopped() {
		f.mu.Unlock()
		return
	}
	close(f.quit)
	f.mu.Unlock()
	f.hostq <- hostDatagram{}
	<-f.hostDone
	f.closeAll()
	f.wg.Wait()
}

// stopped says whether Stop has begun.
func (f *Fabric) stopped() bool {
	select {
	case <-f.quit:
		return true
	default:
		return false
	}
}

// Deliveries streams packets that reached their destination AS.
func (f *Fabric) Deliveries() <-chan Delivery { return f.deliveries }

// Inject originates a packet at a router's host port: the node processes
// it exactly as the engine would process host traffic (in = -1), on the
// caller's goroutine, and a packet that goes on to a peer is handed to the
// host sender. Inject waits while the sender's queue is full. On a stopped
// fabric the packet's send fails and is counted, as on a closed socket;
// an Inject that races Stop may leave its datagram unsent.
func (f *Fabric) Inject(p *dataplane.Packet, origin dataplane.RouterID) {
	if p.TTL <= 0 {
		p.TTL = dataplane.DefaultTTL
	}
	if p.ID == 0 {
		p.ID = uint16(f.nextPktID.Add(1))
	}
	nd := f.nodes[origin]
	nd.injected.Inc()
	port, ok := f.process(nd, p, -1)
	if !ok {
		return
	}
	// The queue carries the datagram as MarshalPacket allocates it, one
	// allocation a packet. Marshaling into reused buffers would allocate
	// nothing, and the benchmark's allocs_per_op would read 0, which
	// bench/bench_test.go rejects; that waits for a change to the harness.
	wire := dataplane.MarshalPacket(p)
	nd.txBytes[port].Add(int64(len(wire)))
	if !f.queue(hostDatagram{nd: nd, port: port, wire: wire}) {
		nd.sendErrors.Inc()
	}
}

// queue hands d to the host sender, waiting while the queue is full, and
// says whether it could: not once Stop has begun.
func (f *Fabric) queue(d hostDatagram) bool {
	if f.stopped() {
		return false
	}
	// A queue with room takes d without the two-channel select below,
	// whose locking costs about a tenth of a saturated fabric's packet.
	select {
	case f.hostq <- d:
		return true
	default:
	}
	select {
	case f.hostq <- d:
		return true
	case <-f.quit:
		return false
	}
}

// sendHost is the host sender. Each time it wakes it adds everything
// waiting on the queue to its runs and flushes the last run before it
// waits again, so a burst of Injects at one origin leaves in UDP_SEGMENT
// sends rather than one send a packet. The sender is the queue's only
// reader: a queue that is not empty yields without blocking. It ends at
// the empty datagram Stop queues behind everything Inject queued before.
func (f *Fabric) sendHost() {
	defer close(f.hostDone)
	for {
		d := <-f.hostq
		for d.nd != nil {
			f.host.add(d.nd, d.port, d.wire)
			if len(f.hostq) == 0 {
				break
			}
			d = <-f.hostq
		}
		f.host.flush()
		if d.nd == nil {
			return
		}
	}
}

// Registry exposes the fabric's metrics registry — per-node counters,
// drop reasons, and receive-path latency histograms — for exposition on a
// debug endpoint or for sharing with other instrumented components.
func (f *Fabric) Registry() *obs.Registry { return f.reg }

// AttachRecorder installs a flight recorder as the hop hook on every
// router, so each sampled packet's journey across the UDP fabric is
// recorded and audited (hops are stitched by the packet ID carried in the
// IPv4 Identification field). Pass nil to detach. Call it before Start:
// the hook field is read unlocked on the receive path.
func (f *Fabric) AttachRecorder(rec *audit.Recorder) {
	f.recorder = rec
	var hook dataplane.HopFunc
	if rec != nil {
		hook = rec.RouterHook()
	}
	for _, nd := range f.nodes {
		nd.router.Hop = hook
	}
}

// Addr returns the UDP address a router listens on (for external senders).
func (f *Fabric) Addr(id dataplane.RouterID) *net.UDPAddr {
	return f.nodes[id].conn.LocalAddr().(*net.UDPAddr)
}

// StatsOf returns a router's counters.
func (f *Fabric) StatsOf(id dataplane.RouterID) Stats {
	nd := f.nodes[id]
	return Stats{
		Received:          nd.received.Value(),
		Injected:          nd.injected.Value(),
		Forwarded:         nd.forwarded.Value(),
		Deflected:         nd.deflected.Value(),
		SendErrors:        nd.sendErrors.Value(),
		Delivered:         nd.delivered.Value(),
		DeliveriesDropped: nd.deliveriesDropped.Value(),
		DropNoRoute:       nd.dropNoRoute.Value(),
		DropValleyFree:    nd.dropValleyFree.Value(),
		DropTTL:           nd.dropTTL.Value(),
		DropUnknownSender: nd.dropUnknownSender.Value(),
		ParseErrors:       nd.parseErrors.Value(),
	}
}

// TotalStats sums counters across all routers.
func (f *Fabric) TotalStats() Stats {
	var t Stats
	for i := range f.nodes {
		s := f.StatsOf(dataplane.RouterID(i))
		t.Received += s.Received
		t.Injected += s.Injected
		t.Forwarded += s.Forwarded
		t.Deflected += s.Deflected
		t.SendErrors += s.SendErrors
		t.Delivered += s.Delivered
		t.DeliveriesDropped += s.DeliveriesDropped
		t.DropNoRoute += s.DropNoRoute
		t.DropValleyFree += s.DropValleyFree
		t.DropTTL += s.DropTTL
		t.DropUnknownSender += s.DropUnknownSender
		t.ParseErrors += s.ParseErrors
	}
	return t
}

const (
	// maxBatch is the number of messages one read takes off a socket.
	maxBatch = 32
	// maxRun is the number of datagrams one UDP_SEGMENT send carries and
	// one GRO message holds at most (the kernel's UDP_MAX_SEGMENTS).
	maxRun = 64
	// slotSize is the room a reader gives one message: a full GRO message
	// of the longest packets the fabric sends.
	slotSize = maxRun * dataplane.MaxWireLen
	// oobSpace holds one control message with a 4-byte payload, the
	// largest either direction uses (CMSG_SPACE(4) is 24 where pointers
	// have 8 bytes).
	oobSpace = 32
	// hostQueueLen is the number of injected datagrams that can wait for
	// the host sender; Inject blocks on a full queue. Four full runs: a
	// burst of a run or more keeps queuing while the sender sends the one
	// before, and no more than this waits behind a sender that fell behind.
	hostQueueLen = 4 * maxRun
)

// message is one read off a node's socket: a datagram, or several of seg
// bytes each (the last may be shorter) that GRO coalesced.
type message struct {
	data []byte
	from netip.AddrPort
	// seg is the segment size GRO reported, 0 for a single datagram.
	seg int
	// trunc says the message did not fit a slot and data is its head.
	trunc bool
}

// reader blocks until the socket has something and fills msgs from the
// front with what is waiting, at least one message. The data it hands out
// stays valid until the next read.
type reader interface {
	read(msgs []message) (int, error)
}

// oneReader takes one message per read through the portable net calls:
// the receive path of a node without GRO, and of every node off Linux.
type oneReader struct {
	conn *net.UDPConn
	buf  [slotSize + 1]byte // one byte more than a slot shows a truncation
	oob  [oobSpace]byte
}

func (r *oneReader) read(msgs []message) (int, error) {
	n, oobn, _, from, err := r.conn.ReadMsgUDPAddrPort(r.buf[:], r.oob[:])
	if err != nil {
		return 0, err
	}
	m := &msgs[0]
	m.from = from
	m.seg = groSegment(r.oob[:oobn])
	if m.trunc = n > slotSize; m.trunc {
		n = slotSize
	}
	m.data = r.buf[:n]
	return 1, nil
}

// serve is one node's receive loop.
func (f *Fabric) serve(nd *node) {
	defer f.wg.Done()
	msgs := make([]message, maxBatch)
	for f.step(nd, msgs) == nil {
	}
}

// step reads one batch, forwards what it holds and flushes the last run
// before it returns, so nothing a node has read waits on its next read.
// The error is the read's: the socket was closed by Stop.
func (f *Fabric) step(nd *node, msgs []message) error {
	n, err := nd.rx.read(msgs)
	if err != nil {
		return err
	}
	start := time.Now()
	datagrams := 0
	for i := range msgs[:n] {
		datagrams += f.receive(nd, &msgs[i])
	}
	nd.tx.flush()
	nd.procLatency.Observe(time.Since(start).Seconds() / float64(datagrams))
	return nil
}

// receive handles every datagram of one message and returns their number.
func (f *Fabric) receive(nd *node, m *message) int {
	if m.trunc {
		// The tail is gone and with it the segment boundaries: the whole
		// message is one datagram that did not parse.
		nd.received.Inc()
		nd.parseErrors.Inc()
		return 1
	}
	in, known := nd.portBySender[m.from]
	seg := m.seg
	if seg <= 0 {
		seg = len(m.data)
	}
	count := 0
	// An empty message is a datagram too, one that does not parse.
	for rest := m.data; count == 0 || len(rest) > 0; count++ {
		d := rest[:min(seg, len(rest))]
		rest = rest[len(d):]
		nd.received.Inc()
		if dataplane.UnmarshalPacketInto(&nd.pkt, d) != nil {
			nd.parseErrors.Inc()
			continue
		}
		if !known {
			nd.dropUnknownSender.Inc()
			continue
		}
		if port, ok := f.process(nd, &nd.pkt, in); ok {
			nd.enqueue(port, &nd.pkt)
		}
	}
	return count
}

// process runs the forwarding engine on p and counts the verdict. A
// packet that goes on to a peer is the caller's to send: process returns
// its port and true.
func (f *Fabric) process(nd *node, p *dataplane.Packet, in int) (port int, forward bool) {
	if p.TTL <= 0 {
		nd.router.DropExpired(p, in)
		nd.dropTTL.Inc()
		return 0, false
	}
	p.TTL--
	act := nd.router.Forward(p, in)
	switch act.Verdict {
	case dataplane.VerdictDeliver:
		nd.delivered.Inc()
		select {
		case f.deliveries <- Delivery{Packet: *p, At: nd.router.ID}:
		default: // consumer not keeping up
			nd.deliveriesDropped.Inc()
		}
	case dataplane.VerdictDrop:
		switch act.Reason {
		case dataplane.DropValleyFree:
			nd.dropValleyFree.Inc()
		case dataplane.DropTTL:
			nd.dropTTL.Inc()
		default:
			nd.dropNoRoute.Inc()
		}
	case dataplane.VerdictForward:
		if !nd.peerAddr[act.Port].IsValid() {
			nd.dropNoRoute.Inc()
			return 0, false
		}
		if act.Deflected {
			nd.deflected.Inc()
		}
		nd.forwarded.Inc()
		return act.Port, true
	}
	return 0, false
}

// enqueue marshals p onto the node's pending run.
func (nd *node) enqueue(port int, p *dataplane.Packet) {
	seg := dataplane.WireLen(p)
	nd.tx.join(nd, port, seg)
	nd.tx.buf = dataplane.AppendPacket(nd.tx.buf, p)
	nd.txBytes[port].Add(int64(seg))
	nd.tx.grew()
}

// add appends wire, a datagram that nd sends out of port, to the run.
func (r *run) add(nd *node, port int, wire []byte) {
	r.join(nd, port, len(wire))
	r.buf = append(r.buf, wire...)
	r.grew()
}

// join readies the run for a datagram of seg bytes that nd sends out of
// port, to be appended to buf next. A run it would not extend is flushed
// first, so datagrams leave each socket in the order they were joined.
func (r *run) join(nd *node, port, seg int) {
	if len(r.buf) > 0 && (nd != r.nd || port != r.port || seg != r.seg) {
		r.flush()
	}
	r.nd, r.port, r.seg = nd, port, seg
}

// grew flushes a run that can take no more datagrams: maxRun of them, or
// one where runs are not segmented.
func (r *run) grew() {
	if !r.gso || len(r.buf) == maxRun*r.seg {
		r.flush()
	}
}

// flush sends the pending run: best-effort datagrams, like the real data
// plane, but a send that returns an error is counted.
func (r *run) flush() {
	if len(r.buf) == 0 {
		return
	}
	nd := r.nd
	addr := nd.peerAddr[r.port]
	if len(r.buf) > r.seg {
		_, _, err := r.writeRun(nd.conn, r.buf, segmentControl(r.oob[:], r.seg), addr)
		if err != nil {
			// Segmentation is all or nothing, so nothing of the run left.
			// Whatever refused it will refuse the next run too.
			nd.sendErrors.Add(int64(len(r.buf) / r.seg))
			r.gso = false
			for b := r.buf; len(b) > 0; b = b[r.seg:] {
				_, _ = nd.conn.WriteToUDPAddrPort(b[:r.seg], addr) // counted as send errors above
			}
		}
	} else if _, err := nd.conn.WriteToUDPAddrPort(r.buf, addr); err != nil {
		nd.sendErrors.Inc()
	}
	r.buf = r.buf[:0]
}

// MonitorLoads starts the MIFO link monitor: every interval each node
// samples its per-port transmit counters, smooths them with an EWMA meter
// (core.Meter), and publishes the result as the port's utilization and
// queue-ratio signal. From then on congestion detection — and therefore
// deflection — is driven entirely by the traffic actually crossing the
// sockets. The returned stop function halts the monitor.
func (f *Fabric) MonitorLoads(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		meters := make([][]*core.Meter, len(f.nodes))
		prev := make([][]int64, len(f.nodes))
		for i, nd := range f.nodes {
			meters[i] = make([]*core.Meter, len(nd.txBytes))
			prev[i] = make([]int64, len(nd.txBytes))
			for p := range meters[i] {
				meters[i][p] = core.NewMeter(4 * interval.Seconds())
				// Publish each meter's smoothed rate as a live gauge so
				// /metrics shows what the congestion signal actually sees.
				meters[i][p].Bind(f.linkRate.With(strconv.Itoa(i), strconv.Itoa(p)))
			}
		}
		start := time.Now()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				now := time.Since(start).Seconds()
				for i, nd := range f.nodes {
					for p := range nd.txBytes {
						cur := nd.txBytes[p].Load()
						meters[i][p].Observe(float64(cur-prev[i][p])*8, now)
						prev[i][p] = cur
						rate := meters[i][p].Rate(now)
						nd.router.SetUtilization(p, rate)
						capacity := nd.router.Ports[p].CapacityBps
						if capacity > 0 {
							ratio := rate / capacity
							if ratio > 1 {
								ratio = 1
							}
							nd.router.SetQueueRatio(p, ratio)
						}
					}
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
