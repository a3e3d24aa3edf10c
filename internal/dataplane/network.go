package dataplane

import (
	"fmt"

	"repro/internal/topo"
)

// Network wires routers together so packets can be stepped hop by hop.
// It is the in-process stand-in for the paper's testbed wiring.
type Network struct {
	// Routers is indexed by RouterID.
	Routers []*Router
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{} }

// AddRouter creates a router in the given AS and returns it.
func (n *Network) AddRouter(as int32) *Router {
	r := NewRouter(RouterID(len(n.Routers)), as)
	n.Routers = append(n.Routers, r)
	return r
}

// Router returns the router with the given id.
func (n *Network) Router(id RouterID) *Router { return n.Routers[id] }

// Connect links routers a and b with a bidirectional link of the given
// capacity. relAtoB is the business relationship of b's AS as seen from a's
// AS (ignored for iBGP links). It returns the port indices created on a and
// b respectively.
func (n *Network) Connect(a, b RouterID, kind PortKind, relAtoB topo.Rel, capacityBps float64) (int, int) {
	ra, rb := n.Routers[a], n.Routers[b]
	if kind == IBGP && ra.AS != rb.AS {
		panic(fmt.Sprintf("dataplane: iBGP link between different ASes %d and %d", ra.AS, rb.AS))
	}
	if kind == EBGP && ra.AS == rb.AS {
		panic(fmt.Sprintf("dataplane: eBGP link within AS %d", ra.AS))
	}
	pa := ra.AddPort(Port{Kind: kind, Peer: b, PeerAS: rb.AS, Rel: relAtoB, CapacityBps: capacityBps})
	pb := rb.AddPort(Port{Kind: kind, Peer: a, PeerAS: ra.AS, Rel: relAtoB.Invert(), CapacityBps: capacityBps})
	ra.Ports[pa].PeerPort = pb
	rb.Ports[pb].PeerPort = pa
	return pa, pb
}

// Hop records one step of a packet's journey.
type Hop struct {
	Router    RouterID
	InPort    int
	OutPort   int
	Deflected bool
}

// Result summarizes a packet's fate.
type Result struct {
	// Verdict is VerdictDeliver or VerdictDrop (never VerdictForward).
	Verdict Verdict
	// Reason explains a drop.
	Reason DropReason
	// At is the router where the packet's journey ended.
	At RouterID
	// Hops is the full trace, one entry per router visited.
	Hops []Hop
	// Deflections counts hops on which the packet took an alternative path.
	Deflections int
}

// ASPath extracts the sequence of ASes visited, collapsing consecutive
// routers of the same AS.
func (res Result) ASPath(n *Network) []int32 {
	var path []int32
	for _, h := range res.Hops {
		as := n.Routers[h.Router].AS
		if len(path) == 0 || path[len(path)-1] != as {
			path = append(path, as)
		}
	}
	return path
}

// DefaultTTL bounds packet journeys. Interdomain paths average under five
// AS hops; 64 mirrors a conventional IP TTL.
const DefaultTTL = 64

// Send injects packet p at origin (as locally originated traffic) and steps
// it through the network until it is delivered or dropped. The packet's TTL
// is honored if positive, else DefaultTTL is used.
func (n *Network) Send(p *Packet, origin RouterID) Result {
	if p.TTL <= 0 {
		p.TTL = DefaultTTL
	}
	res := Result{}
	cur := origin
	in := -1
	for {
		if p.TTL == 0 {
			n.Routers[cur].DropExpired(p, in)
			res.Verdict = VerdictDrop
			res.Reason = DropTTL
			res.At = cur
			return res
		}
		p.TTL--
		r := n.Routers[cur]
		act := r.Forward(p, in)
		res.Hops = append(res.Hops, Hop{Router: cur, InPort: in, OutPort: act.Port, Deflected: act.Deflected})
		if act.Deflected {
			res.Deflections++
		}
		switch act.Verdict {
		case VerdictDeliver:
			res.Verdict = VerdictDeliver
			res.At = cur
			return res
		case VerdictDrop:
			res.Verdict = VerdictDrop
			res.Reason = act.Reason
			res.At = cur
			return res
		}
		port := &r.Ports[act.Port]
		if port.Peer < 0 {
			res.Verdict = VerdictDrop
			res.Reason = DropNoRoute
			res.At = cur
			return res
		}
		cur = port.Peer
		in = port.PeerPort
	}
}
