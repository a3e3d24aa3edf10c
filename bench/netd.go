package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netd"
	"repro/internal/topo"
)

const (
	// satWindow is the number of packets kept in flight by the saturating
	// phase; probeWindow 1 gives the unloaded service time.
	satWindow   = 32
	probeWindow = 1
	// netdDst is the destination AS of every packet (Fig. 2(c)).
	netdDst = 4
	// stallTimeout bounds the wait for one delivery; loopback datagrams of a
	// closed loop this small are never lost, so reaching it is a failure.
	stallTimeout = 10 * time.Second
	// spanEvery is the share of packets a traced segment records spans for.
	spanEvery = 64
	// blockPkts is the number of deliveries after which a measured segment
	// laps its stopwatch. The host's undisturbed stretches last milliseconds
	// (bench/README.md), and a block this size takes 3 to 7 ms.
	blockPkts = 1000
)

// netdConfig says how a rig's network is deployed.
type netdConfig struct {
	// congest loads AS 0's default egress, so every packet is tagged,
	// deflected, carried IP-in-IP to the sibling border router and sent
	// out via AS 2.
	congest bool
	// legacy deploys routers with MIFO switched off.
	legacy bool
	// record attaches a flight recorder sampling every flow.
	record bool
}

// netdRig is the Fig. 2(c) network of TestUDPEncapAcrossIBGP running as a
// UDP fabric on loopback, with one closed-loop generator: AS 0 expanded to
// three border routers, ASes 1-3 its providers, AS 4 the destination.
type netdRig struct {
	cfg    netdConfig
	dep    *core.Deployment
	fab    *netd.Fabric
	rec    *audit.Recorder
	origin dataplane.RouterID // AS 0's egress router towards AS 1
	sink   dataplane.RouterID // AS 4's router
	flow   dataplane.FlowKey
	// deflectsPerPkt is the number of deflecting decisions one packet meets,
	// counted on the same path without sockets.
	deflectsPerPkt int64

	pkt    dataplane.Packet // the one packet every injection reuses
	seq    uint32
	sendAt [1 << 16]int64 // send time by packet ID, ns since epoch
	spanOf [1 << 16]int32 // open "packet" span by packet ID, traced segments only
	epoch  time.Time
	lat    []int64
	stall  *time.Timer

	injected, delivered, misdelivered int64
}

func fig2cGraph() (*topo.Graph, error) {
	b := topo.NewBuilder(5)
	b.AddPC(1, 0).AddPC(2, 0).AddPC(3, 0)
	b.AddPC(1, netdDst).AddPC(2, netdDst).AddPC(3, netdDst)
	return b.Build()
}

// newNetdRig deploys the network, starts the fabric and sends warmup packets
// through it. The seed picks the flow's five-tuple; the work per packet does
// not depend on it.
func newNetdRig(cfg netdConfig, seed int64, maxSegment, warmup int, tr *tracer) (*netdRig, error) {
	r := &netdRig{cfg: cfg, epoch: time.Now(), lat: make([]int64, maxSegment)}
	sp := tr.start("topo.Build", 0)
	g, err := fig2cGraph()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	dcfg := core.Config{ExpandASes: []int{0}}
	if cfg.legacy {
		dcfg.Capable = make([]bool, g.N())
	}
	sp = tr.start("core.NewDeployment", 0)
	r.dep = core.NewDeployment(g, dcfg)
	tr.end(sp)
	sp = tr.start("bgp.Compute", 0)
	table := bgp.Compute(g, netdDst)
	tr.end(sp)
	sp = tr.start("core.InstallDestination", 0)
	r.dep.InstallDestination(table)
	tr.end(sp)
	if cfg.congest {
		if err = r.dep.SetLinkLoad(0, 1, 1e9); err != nil {
			return nil, err
		}
		sp = tr.start("core.Refresh", 0)
		r.dep.Refresh()
		tr.end(sp)
	}
	egress, _, err := r.dep.EgressPort(0, 1)
	if err != nil {
		return nil, err
	}
	r.origin = egress.ID
	r.sink = r.dep.Routers(netdDst)[0].ID

	rng := rand.New(rand.NewSource(seed))
	r.flow = dataplane.FlowKey{
		SrcAddr: 1 + rng.Uint32()%(1<<24),
		DstAddr: dataplane.PrefixAddr(netdDst),
		DstPort: uint16(1 + rng.Intn(1<<16-1)),
		Proto:   6,
	}
	r.seq = rng.Uint32()

	// The same packet through the same routers with no sockets between
	// them says what the fabric must do with each one.
	res := r.dep.Net.Send(&dataplane.Packet{Flow: r.flow, Dst: netdDst}, r.origin)
	if res.Verdict != dataplane.VerdictDeliver || res.At != r.sink {
		return nil, fmt.Errorf("in-memory path ends in %v at router %d, want delivery at %d", res.Verdict, res.At, r.sink)
	}
	r.deflectsPerPkt = int64(res.Deflections)
	if cfg.congest == (r.deflectsPerPkt == 0) {
		return nil, fmt.Errorf("in-memory path deflects %d times with congest=%v", r.deflectsPerPkt, cfg.congest)
	}

	sp = tr.start("netd.NewFabric", 0)
	r.fab, err = netd.NewFabric(r.dep.Net)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if cfg.record {
		r.rec = audit.NewRecorder(audit.Options{})
		r.fab.AttachRecorder(r.rec)
	}
	r.fab.Start()
	r.stall = time.NewTimer(stallTimeout)

	sp = tr.start("warmup", 0)
	_, err = r.run(warmup, satWindow, false, nil, nil)
	tr.end(sp)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// close stops the fabric and the recorder.
func (r *netdRig) close() {
	r.stall.Stop()
	r.fab.Stop()
	if r.rec != nil {
		if err := r.rec.Close(); err != nil {
			fmt.Printf("# flight recorder: %v\n", err)
		}
	}
}

// nextID advances the packet sequence. ID 0 is skipped: the fabric would
// stamp its own.
func (r *netdRig) nextID() uint16 {
	r.seq++
	if uint16(r.seq) == 0 {
		r.seq++
	}
	return uint16(r.seq)
}

// inject sends one packet from AS 0's egress router.
func (r *netdRig) inject(id uint16) {
	r.pkt = dataplane.Packet{Flow: r.flow, ID: id, Dst: netdDst}
	r.pkt.Flow.SrcPort = id
	r.fab.Inject(&r.pkt, r.origin)
	r.injected++
}

// run delivers n packets keeping window of them in flight: the next packet
// is sent only when an earlier one has been delivered. With timed set it
// returns each packet's delivery time in nanoseconds, in delivery order. A
// stopwatch, when given, is lapped after every blockPkts deliveries. run
// allocates nothing.
func (r *netdRig) run(n, window int, timed bool, tr *tracer, sw *stopwatch) ([]int64, error) {
	if !r.stall.Stop() {
		select {
		case <-r.stall.C:
		default:
		}
	}
	r.stall.Reset(stallTimeout)
	spans := tr != nil && tr.on
	want := r.flow
	sent, got := 0, 0
	for got < n {
		for sent < n && sent-got < window {
			id := r.nextID()
			isp := 0
			if spans && sent%spanEvery == 0 {
				r.spanOf[id] = int32(tr.start("packet", 0))
				isp = tr.start("netd.Inject", int(r.spanOf[id]))
			}
			if timed {
				r.sendAt[id] = time.Since(r.epoch).Nanoseconds()
			}
			r.inject(id)
			tr.end(isp)
			sent++
		}
		select {
		case d := <-r.fab.Deliveries():
			id := d.Packet.ID
			if timed {
				r.lat[got] = time.Since(r.epoch).Nanoseconds() - r.sendAt[id]
			}
			if spans && r.spanOf[id] != 0 {
				tr.end(int(r.spanOf[id]))
				r.spanOf[id] = 0
			}
			want.SrcPort = id
			if d.At != r.sink || d.Packet.Dst != netdDst || d.Packet.Flow != want || d.Packet.Encap {
				r.misdelivered++
			}
			r.delivered++
			got++
			if sw != nil && got%blockPkts == 0 {
				sw.lap()
			}
		case <-r.stall.C:
			return nil, fmt.Errorf("no delivery for %v with %d of %d packets delivered", stallTimeout, got, n)
		}
	}
	if timed {
		return r.lat[:n], nil
	}
	return nil, nil
}

// verify checks the fabric's counters at quiescence against what the
// generator sent and returns one line per breach.
func (r *netdRig) verify() []string {
	var bad []string
	s := r.fab.TotalStats()
	if r.delivered != r.injected {
		bad = append(bad, fmt.Sprintf("delivered %d of %d injected", r.delivered, r.injected))
	}
	if r.misdelivered != 0 {
		bad = append(bad, fmt.Sprintf("%d packets delivered at the wrong router or with a changed flow", r.misdelivered))
	}
	if s.Injected != r.injected || s.Delivered != r.delivered {
		bad = append(bad, fmt.Sprintf("fabric counted %d injected and %d delivered, generator %d and %d",
			s.Injected, s.Delivered, r.injected, r.delivered))
	}
	if in, out := s.Received+s.Injected, s.Forwarded+s.Delivered+s.DropNoRoute+s.DropValleyFree+s.DropTTL+s.ParseErrors; in != out {
		bad = append(bad, fmt.Sprintf("conservation: %d packets in, %d accounted for", in, out))
	}
	if s.DropTTL != 0 {
		bad = append(bad, fmt.Sprintf("%d packets looped until their TTL ran out", s.DropTTL))
	}
	if want := r.deflectsPerPkt * r.injected; s.Deflected != want {
		bad = append(bad, fmt.Sprintf("%d deflections, want %d per packet = %d", s.Deflected, r.deflectsPerPkt, want))
	}
	return bad
}

// hopsPerPacket is the number of UDP hops one delivered packet took.
func (r *netdRig) hopsPerPacket() float64 {
	s := r.fab.TotalStats()
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.Received) / float64(s.Delivered)
}

// netdWorkload is netd-default or netd-deflect: packets through the fabric,
// first saturating it, then one at a time.
type netdWorkload struct {
	congest    bool
	sat, probe int // packets per segment
	prevProcs  int
	rig        *netdRig
	tr         *tracer
}

func (w *netdWorkload) sizes(o options) (sat, probe, warmup int) {
	if o.tiny {
		return 2 * blockPkts, blockPkts, 500
	}
	return w.sat, w.probe, 100_000
}

func (w *netdWorkload) setup(o options, tr *tracer) error {
	// One P: the fabric's throughput is then the reciprocal of the CPU one
	// packet costs, and scheduler hand-offs between cores stay out of it.
	w.prevProcs = runtime.GOMAXPROCS(1)
	w.tr = tr
	sat, _, warmup := w.sizes(o)
	rig, err := newNetdRig(netdConfig{congest: w.congest}, o.seed, sat, warmup, tr)
	if err != nil {
		runtime.GOMAXPROCS(w.prevProcs)
		return err
	}
	w.rig = rig
	return nil
}

func (w *netdWorkload) phases(o options) []phase {
	sat, probe, _ := w.sizes(o)
	return []phase{
		{name: "sat", ops: sat, throughput: true, oneCPU: true,
			segment: func(_ int, sw *stopwatch) ([]int64, error) {
				sw.start()
				_, err := w.rig.run(sat, satWindow, false, w.tr, sw)
				sw.stop()
				return nil, err
			}},
		{name: "probe", ops: probe, latency: true, oneCPU: true,
			segment: func(_ int, sw *stopwatch) ([]int64, error) {
				sw.start()
				lat, err := w.rig.run(probe, probeWindow, true, w.tr, sw)
				sw.stop()
				return lat, err
			}},
	}
}

func (w *netdWorkload) verify() (attempted, failed int64, breaches []string) {
	breaches = w.rig.verify()
	failed = w.rig.injected - w.rig.delivered + w.rig.misdelivered
	if n := int64(len(breaches)); failed < n {
		failed = n // a counter out of line fails at least one packet
	}
	return w.rig.injected, failed, breaches
}

func (w *netdWorkload) teardown() {
	w.rig.close()
	runtime.GOMAXPROCS(w.prevProcs)
}

func (w *netdWorkload) note() string { return "" }
