// Package testbed emulates the paper's prototype experiments (Section V):
// the Fig. 11 topology — six ASes, eleven border routers, four hosts, all
// Gigabit links — carrying 30 back-to-back 100 MB TCP flows from S1 to D1
// and another 30 from S2 to D2.
//
// The data plane is the real forwarding engine from internal/dataplane:
// every control epoch each active flow is probed through the router network
// and Algorithm 1 decides its path (including IP-in-IP hand-off from Rd to
// Ra inside AS 3). TCP itself is modeled as a fluid fair share with a
// goodput efficiency factor per path (the alternative path pays extra for
// the longer route and encapsulation overhead), which is the level of
// detail Fig. 12 measures.
package testbed

import (
	"fmt"

	"repro/internal/dataplane"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// Config parameterizes a testbed run.
type Config struct {
	// MIFO enables the MIFO mechanism; false reproduces the BGP baseline.
	MIFO bool
	// FlowsPerPair is the number of sequential flows per (S, D) pair
	// (default 30).
	FlowsPerPair int
	// FlowSizeBits is the per-flow transfer size (default 100 MB).
	FlowSizeBits float64
}

// The testbed's constants are the paper's Gigabit prototype.
const (
	// linkCapacityBps is the capacity of every link.
	linkCapacityBps = 1e9
	// defaultEfficiency is TCP goodput over the default path as a
	// fraction of link rate, matching the paper's 0.94 Gbps BGP aggregate
	// on a GbE testbed.
	defaultEfficiency = 0.94
	// altEfficiency is goodput over the alternative path: one more AS hop
	// plus IP-in-IP encapsulation overhead; yields the paper's ~1.7 Gbps
	// MIFO aggregate.
	altEfficiency = 0.80
	// step is the fluid integration step in seconds.
	step = 1e-3
	// controlInterval is the deflection re-evaluation period in seconds.
	controlInterval = 10e-3
)

func (c Config) withDefaults() Config {
	if c.FlowsPerPair <= 0 {
		c.FlowsPerPair = 30
	}
	if c.FlowSizeBits <= 0 {
		c.FlowSizeBits = 100 * 8e6
	}
	return c
}

// Result holds a run's outputs in Fig. 12's terms.
type Result struct {
	// Aggregate is the network-wide goodput over time, sampled per second
	// (Fig. 12(a); Gbps).
	Aggregate *metrics.TimeSeries
	// FCT is the distribution of flow transfer times in seconds
	// (Fig. 12(b)).
	FCT *metrics.CDF
	// TotalTime is when the last flow completed.
	TotalTime float64
	// MeanAggregateGbps is the time-averaged aggregate goodput.
	MeanAggregateGbps float64
	// AltFlowCount is how many flows traveled the alternative path.
	AltFlowCount int
	// PathSwitches counts path changes observed across all flows.
	PathSwitches int
}

// Testbed is the wired Fig. 11 network.
type Testbed struct {
	cfg Config
	net *dataplane.Network

	r1, r2       *dataplane.Router // AS 1 and AS 2 border routers
	rin, rd, ra  *dataplane.Router // AS 3: ingress, default egress, alternative egress
	r4a, r4b     *dataplane.Router // AS 4
	r5a, r5b     *dataplane.Router // AS 5 (destination)
	r6a, r6b     *dataplane.Router // AS 6
	rdEgressPort int               // Rd's port on the 3->4 bottleneck link
	deflected    map[dataplane.FlowKey]bool
}

// dstPrefix identifies AS 5's prefix in the FIBs.
const dstPrefix = 5

// Build wires the Fig. 11 topology and programs the FIBs.
func Build(cfg Config) *Testbed {
	cfg = cfg.withDefaults()
	tb := &Testbed{cfg: cfg, deflected: make(map[dataplane.FlowKey]bool)}
	n := dataplane.NewNetwork()
	tb.net = n
	const cap = linkCapacityBps

	tb.r1 = n.AddRouter(1)
	tb.r2 = n.AddRouter(2)
	tb.rin = n.AddRouter(3)
	tb.rd = n.AddRouter(3)
	tb.ra = n.AddRouter(3)
	tb.r4a = n.AddRouter(4)
	tb.r4b = n.AddRouter(4)
	tb.r5a = n.AddRouter(5)
	tb.r5b = n.AddRouter(5)
	tb.r6a = n.AddRouter(6)
	tb.r6b = n.AddRouter(6)

	// eBGP: AS 3 is the provider of ASes 1 and 2 and of ASes 4 and 6;
	// AS 5 is a customer of both AS 4 and AS 6. All paths are downhill
	// after AS 3, so the valley-free check always admits the alternative.
	// S-side ASes attach directly to Rd, making the 3->4 egress the
	// shared bottleneck exactly as in Fig. 11.
	p1d, _ := n.Connect(tb.r1.ID, tb.rd.ID, dataplane.EBGP, topo.Provider, cap)
	p2d, _ := n.Connect(tb.r2.ID, tb.rd.ID, dataplane.EBGP, topo.Provider, cap)
	pd4, _ := n.Connect(tb.rd.ID, tb.r4a.ID, dataplane.EBGP, topo.Customer, cap)
	pa6, _ := n.Connect(tb.ra.ID, tb.r6a.ID, dataplane.EBGP, topo.Customer, cap)
	p4b5, _ := n.Connect(tb.r4b.ID, tb.r5a.ID, dataplane.EBGP, topo.Customer, cap)
	p6b5, _ := n.Connect(tb.r6b.ID, tb.r5b.ID, dataplane.EBGP, topo.Customer, cap)

	// iBGP meshes; the intra-AS fabric runs at 10x the access links.
	const icap = 10 * cap
	pinD, _ := n.Connect(tb.rin.ID, tb.rd.ID, dataplane.IBGP, topo.Peer, icap)
	n.Connect(tb.rin.ID, tb.ra.ID, dataplane.IBGP, topo.Peer, icap)
	pdA, paD := n.Connect(tb.rd.ID, tb.ra.ID, dataplane.IBGP, topo.Peer, icap)
	p4a4b, _ := n.Connect(tb.r4a.ID, tb.r4b.ID, dataplane.IBGP, topo.Peer, icap)
	n.Connect(tb.r5a.ID, tb.r5b.ID, dataplane.IBGP, topo.Peer, icap)
	p6a6b, _ := n.Connect(tb.r6a.ID, tb.r6b.ID, dataplane.IBGP, topo.Peer, icap)

	// FIBs towards AS 5's prefix.
	tb.r5a.Local[dstPrefix] = true
	tb.r5b.Local[dstPrefix] = true
	tb.r1.FIB.Set(dstPrefix, dataplane.FIBEntry{Out: p1d, Alt: -1, AltVia: -1})
	tb.r2.FIB.Set(dstPrefix, dataplane.FIBEntry{Out: p2d, Alt: -1, AltVia: -1})
	tb.rin.FIB.Set(dstPrefix, dataplane.FIBEntry{Out: pinD, Alt: -1, AltVia: -1})
	// Rd: default out to AS 4; alternative via iBGP peer Ra (the MIFO
	// daemon's installation, Fig. 11's green path).
	tb.rd.FIB.Set(dstPrefix, dataplane.FIBEntry{Out: pd4, Alt: pdA, AltVia: tb.ra.ID})
	// Ra: its default is through Rd; its own eBGP link to AS 6 is the alt.
	tb.ra.FIB.Set(dstPrefix, dataplane.FIBEntry{Out: paD, Alt: pa6, AltVia: tb.r6a.ID})
	tb.r4a.FIB.Set(dstPrefix, dataplane.FIBEntry{Out: p4a4b, Alt: -1, AltVia: -1})
	tb.r4b.FIB.Set(dstPrefix, dataplane.FIBEntry{Out: p4b5, Alt: -1, AltVia: -1})
	tb.r6a.FIB.Set(dstPrefix, dataplane.FIBEntry{Out: p6a6b, Alt: -1, AltVia: -1})
	tb.r6b.FIB.Set(dstPrefix, dataplane.FIBEntry{Out: p6b5, Alt: -1, AltVia: -1})

	tb.rdEgressPort = pd4
	for _, r := range n.Routers {
		r.MIFOEnabled = cfg.MIFO
		// Below the single-flow queue level (defaultEfficiency), so a flow
		// deflected to Ra stays there while one flow keeps the default
		// port busy; the control loop only *adds* flows to the deflected
		// set at full saturation (>= 2 flows). The gap is the hysteresis
		// that keeps path switching stable (cf. Fig. 9).
		r.CongestionThreshold = defaultEfficiency - 0.05
	}
	// Which flows move when Rd's queue builds: membership in the
	// deflected set, maintained by the control loop below. This plays the
	// role of the paper's flow hashing — deterministic per flow.
	tb.rd.Deflect = func(k dataplane.FlowKey) bool { return tb.deflected[k] }
	return tb
}

// Probe sends one packet of the given flow from its source AS and returns
// the dataplane's verdict and AS-level path.
func (tb *Testbed) Probe(k dataplane.FlowKey) (dataplane.Result, []int32) {
	var origin dataplane.RouterID
	switch k.SrcAddr {
	case 1:
		origin = tb.r1.ID
	case 2:
		origin = tb.r2.ID
	default:
		panic(fmt.Sprintf("testbed: unknown source host %d", k.SrcAddr))
	}
	p := &dataplane.Packet{Flow: k, Dst: dstPrefix}
	res := tb.net.Send(p, origin)
	return res, res.ASPath(tb.net)
}

// viaAlt reports whether an AS path travels the alternative route (AS 6).
func viaAlt(path []int32) bool {
	for _, as := range path {
		if as == 6 {
			return true
		}
	}
	return false
}
