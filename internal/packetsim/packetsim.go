// Package packetsim is a packet-level discrete-event simulator on top of
// the MIFO forwarding engine — the granularity the paper's NS-3 evaluation
// and kernel prototype operate at, complementing the flow-level fluid
// model in internal/netsim.
//
// Every output port of every router has a finite FIFO tx queue served at
// line rate; the queue occupancy *is* the congestion signal Algorithm 1
// reads (the paper's "queuing ratio of output ports"), so deflection
// emerges from real packet dynamics instead of an externally set flag.
// Traffic sources run a reliable AIMD window (TCP-like additive increase,
// multiplicative decrease on loss), which reproduces fair sharing and
// goodput overheads without a full TCP stack.
package packetsim

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/dataplane"
	"repro/internal/eventq"
	"repro/internal/metrics"
)

// The engine's constants are the paper's GbE testbed.
const (
	// packetBytes is the data payload per packet (paper: 1 KB).
	packetBytes = 1000
	// wireOverheadBytes is added per packet on the wire (Ethernet + IP +
	// TCP framing), giving ~0.94 goodput at 1 KB payloads — the paper's
	// GbE testbed baseline.
	wireOverheadBytes = 66
	// encapOverheadBytes is the extra outer IP header carried by packets
	// deflected across iBGP peers.
	encapOverheadBytes = 20
	// queuePackets is each port's tx queue capacity.
	queuePackets = 128
	// propDelay is the per-link propagation delay in seconds.
	propDelay = 50e-6
	// ackDelay is the receiver-to-sender ACK latency in seconds.
	ackDelay = 100e-6
	// initialWindow is the AIMD start window in packets.
	initialWindow = 10
	// maxConsecutiveHardDrops aborts a flow whose packets keep being
	// dropped by the forwarding engine itself (no route / valley-free),
	// since no retransmission strategy can get them through.
	maxConsecutiveHardDrops = 64
)

// FlowSpec describes one transfer.
type FlowSpec struct {
	// Key identifies the flow; the engine hashes it for deflection.
	Key dataplane.FlowKey
	// Origin is the router where packets are injected.
	Origin dataplane.RouterID
	// Dst is the destination prefix looked up in FIBs.
	Dst int32
	// SizeBytes is the total payload to deliver.
	SizeBytes int
	// Start is the earliest start time in seconds. If After is >= 0 the
	// flow instead starts when that flow (by index) completes.
	Start float64
	// After is the index of a predecessor flow, or -1.
	After int
}

// FlowResult reports one flow's packet-level outcome.
type FlowResult struct {
	Spec FlowSpec
	// Start and Finish are the observed first-send and last-ack times.
	Start, Finish float64
	// GoodputBps is payload bits delivered per second of transfer.
	GoodputBps float64
	// Retransmits counts packets resent after a loss.
	Retransmits int
	// QueueDrops counts packets lost to full tx queues.
	QueueDrops int
	// HardDrops counts forwarding-engine drops (no-route / valley-free).
	HardDrops int
	// DeflectedPkts counts delivered packets that took an alternative path.
	DeflectedPkts int
	// DeliveredPkts counts distinct delivered payload packets.
	DeliveredPkts int
	// Aborted marks flows stopped after maxConsecutiveHardDrops.
	Aborted bool
}

// Sim is one packet-level run over a dataplane.Network.
type Sim struct {
	net *dataplane.Network
	rec *audit.Recorder
	// maxHardDrops is maxConsecutiveHardDrops; tests lower it.
	maxHardDrops int

	queues   []txQueue // indexed by portBase[router] + port
	portBase []int

	sources []*source
	queue   eventq.Queue
	now     float64

	// Aggregate goodput accounting.
	bucket      float64
	bucketStart float64
	series      metrics.TimeSeries
	totalBits   float64
}

type txQueue struct {
	pkts []*inFlight
	busy bool
}

// inFlight is a simulated packet in the network.
type inFlight struct {
	pkt  dataplane.Packet
	seq  int
	src  int // index into sources
	sent float64
	defl bool // took an alternative path at least once
	wire int  // wire bytes including overheads
}

// New builds a simulator over an existing router network. The network's
// routers keep whatever FIBs, thresholds and deflection policies they have;
// queue ratios are owned by the simulator from here on. A non-nil rec is
// installed as the hop hook on every router: each sampled packet's full
// journey is recorded and audited, and tx-queue drops finalize the
// journey as lost.
func New(net *dataplane.Network, rec *audit.Recorder) *Sim {
	s := &Sim{net: net, rec: rec, maxHardDrops: maxConsecutiveHardDrops}
	s.portBase = make([]int, len(net.Routers)+1)
	for i, r := range net.Routers {
		s.portBase[i+1] = s.portBase[i] + len(r.Ports)
	}
	s.queues = make([]txQueue, s.portBase[len(net.Routers)])
	s.series.Name = "aggregate-gbps"
	if rec != nil {
		hook := rec.RouterHook()
		for _, r := range net.Routers {
			r.Hop = hook
		}
	}
	return s
}

// AddFlow registers a transfer and returns its index.
func (s *Sim) AddFlow(spec FlowSpec) int {
	if spec.After < 0 && spec.Start < 0 {
		spec.Start = 0
	}
	src := &source{
		spec:  spec,
		cwnd:  initialWindow,
		total: (spec.SizeBytes + packetBytes - 1) / packetBytes,
	}
	s.sources = append(s.sources, src)
	return len(s.sources) - 1
}

// Results holds a run's outputs.
type Results struct {
	Flows []FlowResult
	// Aggregate is goodput over time, bucketed per 100 ms, in Gbps.
	Aggregate metrics.TimeSeries
	// FCT is the distribution of flow completion times.
	FCT *metrics.CDF
	// TotalTime is when the last flow finished.
	TotalTime float64
	// MeanAggregateGbps is total payload over total time.
	MeanAggregateGbps float64
}

const (
	evFlowStart = iota
	evPktArrive
	evTxDone
	evAck
	evLoss
)

type pktArrival struct {
	p  *inFlight
	at dataplane.RouterID
	in int
}

type txRef struct {
	router dataplane.RouterID
	port   int
}

type ackRef struct {
	src  int
	seq  int
	hard bool
}

// Run executes the simulation until every flow completes or aborts.
func (s *Sim) Run() (*Results, error) {
	if len(s.sources) == 0 {
		return &Results{FCT: &metrics.CDF{}}, nil
	}
	for i, src := range s.sources {
		if src.spec.After < 0 {
			s.queue.Push(src.spec.Start, evFlowStart, i)
		} else if src.spec.After >= len(s.sources) || src.spec.After == i {
			return nil, fmt.Errorf("packetsim: flow %d has invalid After=%d", i, src.spec.After)
		}
	}
	const maxEvents = 500_000_000 // hard safety valve
	for n := 0; n < maxEvents; n++ {
		ev := s.queue.Pop()
		if ev == nil {
			break
		}
		s.account(ev.Time)
		s.now = ev.Time
		switch ev.Kind {
		case evFlowStart:
			s.startFlow(ev.Data.(int))
		case evPktArrive:
			a := ev.Data.(pktArrival)
			s.arrive(a.p, a.at, a.in)
		case evTxDone:
			r := ev.Data.(txRef)
			s.txDone(r.router, r.port)
		case evAck:
			a := ev.Data.(ackRef)
			s.ack(a.src, a.seq)
		case evLoss:
			a := ev.Data.(ackRef)
			s.loss(a.src, a.seq, a.hard)
		}
	}

	res := &Results{FCT: &metrics.CDF{}}
	for _, src := range s.sources {
		fr := FlowResult{
			Spec:          src.spec,
			Start:         src.started,
			Finish:        src.finished,
			Retransmits:   src.retransmits,
			QueueDrops:    src.queueDrops,
			HardDrops:     src.hardDrops,
			DeflectedPkts: src.deflected,
			DeliveredPkts: src.delivered,
			Aborted:       src.aborted,
		}
		if !src.aborted && src.finished > src.started {
			fr.GoodputBps = float64(src.spec.SizeBytes*8) / (src.finished - src.started)
			res.FCT.Add(src.finished - src.started)
			if src.finished > res.TotalTime {
				res.TotalTime = src.finished
			}
		}
		res.Flows = append(res.Flows, fr)
	}
	s.flushBucket()
	res.Aggregate = s.series
	if res.TotalTime > 0 {
		res.MeanAggregateGbps = s.totalBits / res.TotalTime / 1e9
	}
	return res, nil
}

// account adds delivered bits to the 100ms aggregate buckets.
func (s *Sim) account(t float64) {
	for t-s.bucketStart >= 0.1 {
		s.series.Add(s.bucketStart, s.bucket/0.1/1e9)
		s.bucket = 0
		s.bucketStart += 0.1
	}
}

func (s *Sim) flushBucket() {
	if s.bucket > 0 {
		s.series.Add(s.bucketStart, s.bucket/0.1/1e9)
		s.bucket = 0
	}
}

func (s *Sim) qindex(r dataplane.RouterID, port int) int {
	return s.portBase[r] + port
}

// inject creates and routes one payload packet from a source.
func (s *Sim) inject(srcIdx, seq int) {
	src := s.sources[srcIdx]
	p := &inFlight{
		// The sequence number doubles as the wire-level packet ID the
		// flight recorder stitches journeys by; AIMD never has two packets
		// of one flow with the same seq in flight, so the uint16 wrap on
		// very long transfers cannot collide within a window.
		pkt:  dataplane.Packet{Flow: src.spec.Key, ID: uint16(seq), Dst: src.spec.Dst, TTL: dataplane.DefaultTTL},
		seq:  seq,
		src:  srcIdx,
		sent: s.now,
		wire: packetBytes + wireOverheadBytes,
	}
	s.arrive(p, src.spec.Origin, -1)
}

// arrive runs the forwarding engine for a packet at a router.
func (s *Sim) arrive(p *inFlight, at dataplane.RouterID, in int) {
	r := s.net.Router(at)
	if p.pkt.TTL <= 0 {
		r.DropExpired(&p.pkt, in)
		s.hardDrop(p)
		return
	}
	p.pkt.TTL--
	wasEncap := p.pkt.Encap
	act := r.Forward(&p.pkt, in)
	if wasEncap && !p.pkt.Encap {
		p.wire -= encapOverheadBytes // outer header stripped
	}
	switch act.Verdict {
	case dataplane.VerdictDeliver:
		s.deliver(p)
	case dataplane.VerdictDrop:
		s.hardDrop(p)
	case dataplane.VerdictForward:
		if act.Deflected {
			p.defl = true
			if p.pkt.Encap {
				p.wire += encapOverheadBytes
			}
		}
		s.enqueue(p, at, act.Port)
	}
}

// enqueue places a packet in a port's tx queue, dropping at capacity.
func (s *Sim) enqueue(p *inFlight, at dataplane.RouterID, port int) {
	qi := s.qindex(at, port)
	q := &s.queues[qi]
	if len(q.pkts) >= queuePackets {
		src := s.sources[p.src]
		src.queueDrops++
		if s.rec != nil {
			s.rec.Lost(&p.pkt, "queue-overflow")
		}
		s.queue.Push(s.now, evLoss, ackRef{src: p.src, seq: p.seq})
		return
	}
	q.pkts = append(q.pkts, p)
	s.updateQueueRatio(at, port, qi)
	if !q.busy {
		q.busy = true
		s.startTx(at, port, qi)
	}
}

// startTx begins serializing the head-of-line packet.
func (s *Sim) startTx(at dataplane.RouterID, port int, qi int) {
	q := &s.queues[qi]
	p := q.pkts[0]
	rate := s.net.Router(at).Ports[port].CapacityBps
	txTime := float64(p.wire*8) / rate
	s.queue.Push(s.now+txTime, evTxDone, txRef{router: at, port: port})
}

// txDone moves the head packet onto the wire and serves the next one.
func (s *Sim) txDone(at dataplane.RouterID, port int) {
	qi := s.qindex(at, port)
	q := &s.queues[qi]
	p := q.pkts[0]
	copy(q.pkts, q.pkts[1:])
	q.pkts = q.pkts[:len(q.pkts)-1]
	s.updateQueueRatio(at, port, qi)

	pp := &s.net.Router(at).Ports[port]
	s.queue.Push(s.now+propDelay, evPktArrive, pktArrival{p: p, at: pp.Peer, in: pp.PeerPort})

	if len(q.pkts) > 0 {
		s.startTx(at, port, qi)
	} else {
		q.busy = false
	}
}

// updateQueueRatio publishes the occupancy as the congestion signal.
func (s *Sim) updateQueueRatio(at dataplane.RouterID, port int, qi int) {
	s.net.Router(at).SetQueueRatio(port, float64(len(s.queues[qi].pkts))/queuePackets)
}

// deliver hands the payload to the destination and schedules the ACK.
func (s *Sim) deliver(p *inFlight) {
	src := s.sources[p.src]
	if p.defl {
		src.deflected++
	}
	s.queue.Push(s.now+ackDelay, evAck, ackRef{src: p.src, seq: p.seq})
}

// hardDrop handles a forwarding-engine drop (no route, valley-free, TTL).
func (s *Sim) hardDrop(p *inFlight) {
	s.sources[p.src].hardDrops++
	s.queue.Push(s.now, evLoss, ackRef{src: p.src, seq: p.seq, hard: true})
}
