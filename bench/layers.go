package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// The layer suite is the second half of a traced run. It replays the
// workloads' inputs through each layer's public functions on their own and
// times them from outside, so the end-to-end figures of the untraced runs
// can be set against a budget per layer. It runs in a process of its own
// (`-workload layers`): the traced workload before it has moved its process
// from CPU to CPU, and the guest's scheduler was seen to leave threads that
// were pinned together on one CPU for seconds after their release, which
// halves every row that uses both. A single traced workload is followed by
// the whole suite, because the benchmark's contract wants every per-layer
// metric from every traced run; a full traced pass runs it once, after the
// five workloads.

// layers collects the suite's metrics.
type layers struct {
	o    options
	reps int // repetitions of a call that takes milliseconds or more
	m    map[string]metric
}

func (l *layers) set(name string, v float64) {
	l.m[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
}

// layerSuite measures every layer and returns the metrics by name.
func layerSuite(o options) (map[string]metric, error) {
	l := &layers{o: o, reps: 3, m: make(map[string]metric)}
	if o.tiny {
		l.reps = 1
	}
	// fabric comes last: it is the one part that pins the process.
	for _, part := range []func() error{l.routing, l.coreAndDataplane, l.simulator, l.fabric} {
		if err := part(); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

// routing measures topo and bgp on the routing workloads' inputs.
func (l *layers) routing() error {
	var in *routeInputs
	var err error
	l.set("topo.generate_s", timeIt(l.reps, func() { in, err = newRouteInputs(l.o, nil) }))
	if err != nil {
		return err
	}
	g := in.g
	hub, peers := hubPeers(g)
	if len(peers) < repairLinks {
		return fmt.Errorf("AS %d has %d peers, the schedule needs %d", hub, len(peers), repairLinks)
	}
	links := peers[:repairLinks]
	l.set("topo.remove_links_ms", 1e3*timeIt(l.reps, func() {
		_, err = topo.RemoveLinks(g, []topo.LinkRef{{A: hub, B: links[0]}})
	}))
	if err != nil {
		return err
	}

	sample := in.dsts[:len(in.dsts)/8]
	compute := timeIt(l.reps, func() {
		for _, d := range sample {
			bgp.Compute(g, d)
		}
	}) / float64(len(sample))
	l.set("bgp.compute_us_per_dest", 1e6*compute)

	// One build before the timed ones: the guest's scheduler leaves the busy
	// threads of a young process on one CPU for its first half second or more.
	table := bgp.NewTable(g, in.dsts, 0)
	build := timeIt(l.reps, func() { table = bgp.NewTable(g, in.dsts, 0) })
	serial := timeIt(l.reps, func() { bgp.NewTable(g, in.dsts, 1) })
	l.set("bgp.table_build_ms", 1e3*build)
	l.set("bgp.parallel_speedup", serial/build)
	l.set("bgp.table_bytes_per_dest", table.MemStats().BytesPerDest)

	var down, up []float64
	before := table.Stats()
	for r := 0; r < l.reps; r++ {
		for _, u := range links {
			t0 := time.Now()
			table.LinkDown(hub, u)
			t1 := time.Now()
			table.LinkUp(hub, u)
			down = append(down, t1.Sub(t0).Seconds())
			up = append(up, time.Since(t1).Seconds())
		}
	}
	st := table.Stats()
	dirty := float64(st.IncrementalComputes - before.IncrementalComputes)
	skipped := float64(st.CleanSkipped - before.CleanSkipped)
	total := 0.0
	for i := range down {
		total += down[i] + up[i]
	}
	l.set("bgp.linkdown_ms_p50", 1e3*median(down))
	l.set("bgp.linkup_ms_p50", 1e3*median(up))
	l.set("bgp.dirty_share", dirty/(dirty+skipped))
	l.set("bgp.repair_us_per_dirty_dest", 1e6*total/dirty)
	// Both sides use all cores, so the ratio compares like with like: above
	// 1, repairing a destination costs more than computing it afresh.
	l.set("bgp.repair_vs_scratch_ratio", (total/dirty)/(build/float64(len(in.dsts))))
	return nil
}

// coreAndDataplane measures the control side on the simulator's topology and
// the forwarding engine and wire format on the fabric's own routers.
func (l *layers) coreAndDataplane() error {
	sim, err := newSimInputs(l.o, nil)
	if err != nil {
		return err
	}
	dsts := sim.dests()
	if len(dsts) > 64 {
		dsts = dsts[:64]
	}
	tables := bgp.ComputeAll(sim.g, dsts, 0)
	var dep *core.Deployment
	installs := make([]float64, l.reps)
	for r := range installs {
		dep = core.NewDeployment(sim.g, core.Config{})
		t0 := time.Now()
		dep.InstallDestinations(tables)
		installs[r] = time.Since(t0).Seconds()
	}
	l.set("core.install_us_per_dest", 1e6*quiet(installs)/float64(len(dsts)))
	for v := 0; v < sim.g.N(); v += 3 {
		for _, nb := range sim.g.Neighbors(v) {
			if err := dep.SetLinkLoad(v, int(nb.AS), 1e9); err != nil {
				return err
			}
			break
		}
	}
	l.set("core.refresh_us", 1e6*timeIt(l.reps, dep.Refresh))

	n := 200_000
	if l.o.tiny {
		n = 2_000
	}
	for _, congest := range []bool{false, true} {
		g, err := fig2cGraph()
		if err != nil {
			return err
		}
		dep := core.NewDeployment(g, core.Config{ExpandASes: []int{0}})
		dep.InstallDestination(bgp.Compute(g, netdDst))
		if congest {
			if err = dep.SetLinkLoad(0, 1, 1e9); err != nil {
				return err
			}
			dep.Refresh()
		}
		egress, _, err := dep.EgressPort(0, 1)
		if err != nil {
			return err
		}
		flow := dataplane.FlowKey{SrcAddr: 5, DstAddr: dataplane.PrefixAddr(netdDst), DstPort: 80, Proto: 6}
		var p dataplane.Packet
		forward := timeIt(10, func() {
			for i := 0; i < n; i++ {
				p = dataplane.Packet{Flow: flow, ID: uint16(i), Dst: netdDst, TTL: dataplane.DefaultTTL}
				egress.Forward(&p, -1)
			}
		}) / float64(n)
		var wire []byte
		marshal := timeIt(10, func() {
			for i := 0; i < n; i++ {
				wire = dataplane.MarshalPacket(&p)
			}
		}) / float64(n)
		unmarshal := timeIt(10, func() {
			for i := 0; i < n; i++ {
				if _, err = dataplane.UnmarshalPacket(wire); err != nil {
					return
				}
			}
		}) / float64(n)
		if err != nil {
			return err
		}
		if p.Encap != congest {
			return fmt.Errorf("egress router left Encap=%v with congest=%v", p.Encap, congest)
		}
		if !congest {
			l.set("dataplane.forward_ns", 1e9*forward)
			l.set("dataplane.marshal_ns", 1e9*marshal)
			l.set("dataplane.unmarshal_ns", 1e9*unmarshal)
			l.set("dataplane.wire_allocs_per_pkt", countAllocs(func() {
				for i := 0; i < n; i++ {
					wire = dataplane.MarshalPacket(&p)
					_, err = dataplane.UnmarshalPacket(wire)
				}
			})/float64(n))
			l.set("core.send_ns", 1e9*timeIt(10, func() {
				for i := 0; i < n/4; i++ {
					dep.Net.Send(&dataplane.Packet{Flow: flow, Dst: netdDst}, egress.ID)
				}
			})/float64(n/4))
		} else {
			l.set("dataplane.forward_deflect_ns", 1e9*forward)
			l.set("dataplane.marshal_encap_ns", 1e9*marshal)
			l.set("dataplane.unmarshal_encap_ns", 1e9*unmarshal)
		}
	}
	return nil
}

// echoServer sends every datagram it receives back to its sender.
type echoServer struct {
	conn *net.UDPConn
	done chan struct{}
}

func listenLoopback() (*net.UDPConn, error) {
	return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

func startEcho() (*echoServer, error) {
	conn, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	e := &echoServer{conn: conn, done: make(chan struct{})}
	go e.serve()
	return e, nil
}

func (e *echoServer) serve() {
	defer close(e.done)
	buf := make([]byte, 64)
	for {
		n, from, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		if _, err := e.conn.WriteToUDP(buf[:n], from); err != nil {
			return
		}
	}
}

// Close closes the socket and waits for the serving goroutine to end.
func (e *echoServer) Close() error {
	err := e.conn.Close()
	<-e.done
	return err
}

// udpFloor is the cost of one datagram hop with no router in it: a
// header-sized datagram echoed between two loopback sockets of the harness's
// own, each read by its own goroutine and kept as busy as the fabric's are,
// with satWindow datagrams in flight. One echo is two hops.
func (l *layers) udpFloor() (float64, error) {
	a, err := listenLoopback()
	if err != nil {
		return 0, err
	}
	defer a.Close()
	echo, err := startEcho()
	if err != nil {
		return 0, err
	}
	defer echo.Close()

	echoes := 10_000
	if l.o.tiny {
		echoes = 200
	}
	dgram := dataplane.MarshalPacket(&dataplane.Packet{Dst: netdDst, TTL: dataplane.DefaultTTL})
	buf := make([]byte, 64)
	to := echo.conn.LocalAddr().(*net.UDPAddr)
	var ioErr error
	perEcho := timeIt(10, func() {
		if ioErr = a.SetReadDeadline(time.Now().Add(stallTimeout)); ioErr != nil {
			return
		}
		sent, got := 0, 0
		for got < echoes && ioErr == nil {
			for sent < echoes && sent-got < satWindow && ioErr == nil {
				_, ioErr = a.WriteToUDP(dgram, to)
				sent++
			}
			if ioErr == nil {
				_, _, ioErr = a.ReadFromUDP(buf)
				got++
			}
		}
	}) / float64(echoes)
	return perEcho / 2, ioErr
}

// fabric measures netd and the flight recorder on top of it: first the
// default fabric on all cores, while no thread has been pinned yet, then on
// one P as the netd workloads run the hop budget of the default path, the
// deflecting path, and the same fabric with MIFO switched off and with every
// packet recorded. The four fabrics take turns segment by segment, so their
// ratios compare like host conditions.
func (l *layers) fabric() error {
	rounds, size, warmup := 12, 10_000, 20_000
	if l.o.tiny {
		rounds, size, warmup = 2, 200, 200
	}
	const base, deflect, legacy, recorded = 0, 1, 2, 3
	cfgs := []netdConfig{base: {}, deflect: {congest: true}, legacy: {legacy: true}, recorded: {record: true}}
	rigs := make([]*netdRig, len(cfgs))
	for i, cfg := range cfgs {
		rig, err := newNetdRig(cfg, l.o.seed, size, warmup, nil)
		if err != nil {
			return err
		}
		defer rig.close()
		rigs[i] = rig
	}

	// segment times one saturated segment of a rig. The recorder works in
	// the background, so its segment ends only when it has caught up.
	segment := func(rig *netdRig, sw *stopwatch) error {
		sw.start()
		_, err := rig.run(size, satWindow, false, nil, nil)
		if err == nil && rig.rec != nil {
			err = rig.rec.Flush()
		}
		sw.stop()
		return err
	}
	var allCores []float64
	for r := 0; r < rounds; r++ {
		var sw stopwatch
		if err := segment(rigs[base], &sw); err != nil {
			return err
		}
		allCores = append(allCores, sw.wall.Seconds()/float64(size))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rotor := newCPURotor()
	defer rotor.release()
	perPkt := make([][]float64, len(rigs))
	var baseAllocs uint64
	for r := 0; r < rounds; r++ {
		rotor.pin(r)
		for i, rig := range rigs {
			var sw stopwatch
			if err := segment(rig, &sw); err != nil {
				return err
			}
			perPkt[i] = append(perPkt[i], sw.wall.Seconds()/float64(size))
			if i == base {
				baseAllocs += sw.mallocs
			}
		}
	}
	var p95s, p99s []float64
	for r := 0; r < rounds; r++ {
		rotor.pin(r)
		lat, err := rigs[base].run(size/2, probeWindow, true, nil, nil)
		if err != nil {
			return err
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		p95s = append(p95s, float64(rank(lat, 0.95))/1e3)
		p99s = append(p99s, float64(rank(lat, 0.99))/1e3)
	}
	floors := make([]float64, 2)
	for r := range floors {
		rotor.pin(r)
		var err error
		if floors[r], err = l.udpFloor(); err != nil {
			return err
		}
	}
	floor := math.Min(floors[0], floors[1])
	for _, rig := range rigs {
		if bad := rig.verify(); len(bad) > 0 {
			return fmt.Errorf("netd rig %+v: %s", rig.cfg, bad[0])
		}
	}

	hops := rigs[base].hopsPerPacket()
	hop := quiet(perPkt[base]) / hops
	l.set("netd.udp_hops_per_op", hops)
	l.set("netd.hop_us", 1e6*hop)
	l.set("netd.allocs_per_hop", float64(baseAllocs)/float64(rounds*size)/hops)
	l.set("netd.udp_floor_us", 1e6*floor)
	inRouter := (l.m["dataplane.unmarshal_ns"].Value + l.m["dataplane.forward_ns"].Value + l.m["dataplane.marshal_ns"].Value) / 1e3
	l.set("netd.residual_us", 1e6*(hop-floor)-inRouter)
	ds := rigs[deflect].fab.TotalStats()
	l.set("netd.deflected_share", float64(ds.Deflected)/float64(ds.Forwarded))
	lost, injected := int64(0), int64(0)
	for _, rig := range rigs {
		lost += rig.injected - rig.delivered
		injected += rig.injected
	}
	l.set("netd.lost_share", float64(lost)/float64(injected))
	l.set("netd.legacy_pkts_per_s_ratio", quiet(perPkt[legacy])/quiet(perPkt[base]))
	l.set("netd.pkts_per_s_allcores", 1/quiet(allCores))
	l.set("netd.lat_us_p95", quiet(p95s))
	l.set("netd.lat_us_p99", quiet(p99s))
	l.set("audit.netd_pkts_per_s_ratio", quiet(perPkt[base])/quiet(perPkt[recorded]))
	rs := rigs[recorded].rec.Stats()
	l.set("audit.shed_share", float64(rs.RingDropped)/float64(rs.Steps+rs.RingDropped))
	return nil
}

// simulator measures netsim and traffic on the sim-flows inputs: each
// policy, the streaming engine, route precomputation on its own, and a run
// with every observer attached.
func (l *layers) simulator() error {
	in, err := newSimInputs(l.o, nil)
	if err != nil {
		return err
	}
	var res *netsim.Results
	runOf := func(cfg netsim.Config) func() {
		return func() {
			if err == nil {
				res, err = netsim.Run(in.g, in.flows, cfg)
			}
		}
	}
	flows := float64(len(in.flows))
	bgpT := timeIt(l.reps, runOf(netsim.Config{Policy: netsim.PolicyBGP}))
	l.set("netsim.allocs_per_flow_bgp", countAllocs(runOf(netsim.Config{Policy: netsim.PolicyBGP}))/flows)
	miroT := timeIt(l.reps, runOf(netsim.Config{Policy: netsim.PolicyMIRO}))
	mifoT := timeIt(l.reps, runOf(netsim.Config{Policy: netsim.PolicyMIFO}))
	l.set("netsim.allocs_per_flow_mifo", countAllocs(runOf(netsim.Config{Policy: netsim.PolicyMIFO}))/flows)
	if err != nil {
		return err
	}
	l.set("netsim.run_bgp_ms", 1e3*bgpT)
	l.set("netsim.run_miro_ms", 1e3*miroT)
	l.set("netsim.run_mifo_ms", 1e3*mifoT)
	// What MIFO's control epochs and path switching add to the same
	// simulation under plain BGP.
	l.set("netsim.adapt_share", (mifoT-bgpT)/mifoT)
	l.set("netsim.offload_share", res.OffloadFraction())
	l.set("netsim.mean_mbps", res.MeanThroughputMbps())

	dsts := in.dests()
	l.set("netsim.stream_ms", 1e3*timeIt(l.reps, func() {
		var src traffic.Stream
		if src, err = traffic.NewUniformStream(in.ucfg); err == nil {
			_, err = netsim.RunStream(in.g, src, dsts, 0, netsim.Config{Policy: netsim.PolicyMIFO})
		}
	}))
	if err != nil {
		return err
	}
	l.set("netsim.route_precompute_ms", 1e3*timeIt(l.reps, func() { bgp.NewTable(in.g, dsts, 0) }))
	l.set("traffic.gen_ns_per_flow", 1e9*timeIt(10, func() { _, err = traffic.Uniform(in.ucfg) })/flows)
	if err != nil {
		return err
	}

	// The same MIFO run with the flight recorder, the time-series store and
	// the span tracer attached.
	rec := audit.NewRecorder(audit.Options{})
	tracer := span.New(span.Options{})
	observed := timeIt(l.reps, runOf(netsim.Config{
		Policy: netsim.PolicyMIFO, Recorder: rec, TSDB: tsdb.NewStore(), Spans: tracer,
	}))
	closeErr := rec.Close()
	if err2 := tracer.Close(); closeErr == nil {
		closeErr = err2
	}
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	l.set("obs.sim_observed_ratio", mifoT/observed)
	return nil
}
