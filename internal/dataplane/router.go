package dataplane

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/topo"
)

// PortKind distinguishes the three kinds of router attachment.
type PortKind int8

const (
	// EBGP ports connect to a border router of another AS.
	EBGP PortKind = iota
	// IBGP ports connect to a border router of the same AS.
	IBGP
	// Host ports connect to traffic sources/sinks inside the AS.
	Host
)

// String returns a short kind name.
func (k PortKind) String() string {
	switch k {
	case EBGP:
		return "eBGP"
	case IBGP:
		return "iBGP"
	case Host:
		return "host"
	default:
		return fmt.Sprintf("PortKind(%d)", int(k))
	}
}

// Port is one attachment point of a router.
type Port struct {
	// Kind classifies the far end.
	Kind PortKind
	// Peer is the router on the other side (-1 for an unconnected host port).
	Peer RouterID
	// PeerPort is the port index on the peer router that faces back here
	// (-1 for host ports). Maintained by Network.Connect.
	PeerPort int
	// PeerAS is the AS of the far-end router.
	PeerAS int32
	// Rel is the business relationship of the far-end AS as seen from this
	// router's AS. Meaningful for EBGP ports only.
	Rel topo.Rel
	// CapacityBps is the link capacity in bits per second, used by the MIFO
	// daemon's local link monitoring.
	CapacityBps float64

	// queueRatioBits in [0,1] is the congestion signal: the paper uses the
	// tx queue occupancy of the output port (Section II-A). Stored as
	// float64 bits, accessed atomically through the accessors below, so
	// the forwarding path and the daemon never race (ports are wired
	// before any concurrency starts).
	queueRatioBits uint64
	// utilizedBits is the measured load (float64 bits) for spare-capacity
	// ranking.
	utilizedBits uint64
}

// FIBEntry is a forwarding entry extended with MIFO's alternative port.
type FIBEntry struct {
	// Out is the default output port index, or -1 for local delivery.
	Out int
	// Alt is the alternative output port index, or -1 when no alternative
	// is installed.
	Alt int
	// AltVia is the router the alternative path goes through. For an iBGP
	// alternative this is the egress iBGP peer and becomes the outer
	// destination of the encapsulated packet.
	AltVia RouterID
}

// DeflectPolicy decides, per flow, whether a flow crossing a congested
// default port moves to the alternative path. Hash-based policies keep the
// decision deterministic per flow, avoiding reordering.
type DeflectPolicy func(k FlowKey) bool

// DeflectAll moves every flow while congestion lasts.
func DeflectAll(FlowKey) bool { return true }

// DeflectShare moves the given fraction of flows, chosen by five-tuple
// hash. share is clamped to [0,1].
func DeflectShare(share float64) DeflectPolicy {
	if share < 0 {
		share = 0
	}
	if share > 1 {
		share = 1
	}
	limit := uint32(share * float64(1<<32-1))
	return func(k FlowKey) bool { return k.Hash() <= limit }
}

// Router is one MIFO-capable (or legacy) border router.
type Router struct {
	// ID is the router's identity within its Network.
	ID RouterID
	// AS is the AS the router belongs to.
	AS int32
	// Ports are the router's attachments; indices are FIB port references.
	Ports []Port
	// FIB is the forwarding table keyed by dense destination identifiers.
	FIB *FIB
	// Local marks destination prefixes delivered by this router.
	Local map[int32]bool
	// CongestionThreshold is the tx-queue ratio at which a port counts as
	// congested. The paper leaves the signal open; queue ratio is its
	// running example. Default 0.8 (set by NewRouter).
	CongestionThreshold float64
	// Deflect decides which flows leave the congested default path.
	// Defaults to DeflectAll.
	Deflect DeflectPolicy
	// MIFOEnabled gates the whole mechanism: a legacy router never uses
	// the alternative port (but still participates in tagging-free
	// forwarding as plain BGP would).
	MIFOEnabled bool
	// DisableTagCheck turns off the valley-free tag-check (lines 16-20 of
	// Algorithm 1) while leaving deflection active. It exists to
	// demonstrate and measure the data-plane loops the check prevents
	// (Fig. 2(a)); never disable it in a real deployment.
	DisableTagCheck bool
	// Hop, when non-nil, is called once per Forward with the full decision
	// context — the single observer of forwarding decisions (the flight
	// recorder installs it, see internal/audit). A nil hook costs a single
	// pointer check on the hot path.
	Hop HopFunc
}

// NewRouter returns a MIFO-enabled router with an empty FIB.
func NewRouter(id RouterID, as int32) *Router {
	return &Router{
		ID:                  id,
		AS:                  as,
		FIB:                 NewFIB(),
		Local:               make(map[int32]bool),
		CongestionThreshold: 0.8,
		Deflect:             DeflectAll,
		MIFOEnabled:         true,
	}
}

// AddPort appends a port and returns its index.
func (r *Router) AddPort(p Port) int {
	r.Ports = append(r.Ports, p)
	return len(r.Ports) - 1
}

// SetQueueRatio sets the congestion signal of a port.
func (r *Router) SetQueueRatio(port int, ratio float64) {
	atomic.StoreUint64(&r.Ports[port].queueRatioBits, math.Float64bits(ratio))
}

// QueueRatio returns the congestion signal of a port.
func (r *Router) QueueRatio(port int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&r.Ports[port].queueRatioBits))
}

// SetUtilization records the measured load (bits/s) on a port.
func (r *Router) SetUtilization(port int, bps float64) {
	atomic.StoreUint64(&r.Ports[port].utilizedBits, math.Float64bits(bps))
}

// SpareCapacity returns capacity minus measured load of a port, floored at 0.
func (r *Router) SpareCapacity(port int) float64 {
	s := r.Ports[port].CapacityBps - math.Float64frombits(atomic.LoadUint64(&r.Ports[port].utilizedBits))
	if s < 0 {
		return 0
	}
	return s
}

// Congested reports whether a port's queue ratio crosses the threshold.
func (r *Router) Congested(port int) bool {
	return r.QueueRatio(port) >= r.CongestionThreshold
}

// HopInfo is the flight recorder's view of one forwarding decision: the
// packet's arrival context, the tag/encap state it left with, and the
// verdict. Router.Hop receives one per Forward call.
type HopInfo struct {
	// Router and AS identify the deciding router.
	Router RouterID
	AS     int32
	// In is the arrival port (-1 for locally originated traffic); InKind,
	// InRel and FromAS describe it (InKind is Host when In < 0, InRel is
	// meaningful for eBGP in-ports only).
	In     int
	InKind PortKind
	InRel  topo.Rel
	FromAS int32
	// Out describes the egress when Verdict == VerdictForward (Out is -1
	// otherwise); OutRel is meaningful for eBGP out-ports only.
	Out     int
	OutKind PortKind
	OutRel  topo.Rel
	ToAS    int32
	// Tag is the valley-free bit after entry stamping; ArrivedEncap and
	// LeftEncap are the IP-in-IP state on arrival and departure.
	Tag          bool
	ArrivedEncap bool
	LeftEncap    bool
	// Deflected reports the packet took an alternative path at this hop.
	Deflected bool
	Verdict   Verdict
	Reason    DropReason
	// AltTried is set when an alternative egress was taken or refused;
	// AltRel is that egress' relationship class (the tag-check input).
	AltTried bool
	AltRel   topo.Rel
}

// HopFunc observes forwarding decisions. The packet pointer is only valid
// for the duration of the call.
type HopFunc func(p *Packet, h HopInfo)

// DropExpired records a TTL-exhausted packet: transports that manage TTL
// outside Forward (Network.Send, netd, packetsim) route the drop through
// here so the Hop hook sees it like any other decision.
func (r *Router) DropExpired(p *Packet, in int) Action {
	act := Action{Verdict: VerdictDrop, Reason: DropTTL}
	if r.Hop != nil {
		h := r.hopInfo(p, in)
		h.Tag = p.Tag
		h.LeftEncap = p.Encap
		h.Verdict = VerdictDrop
		h.Reason = DropTTL
		r.Hop(p, h)
	}
	return act
}

// hopInfo seeds a HopInfo with the arrival-side context.
func (r *Router) hopInfo(p *Packet, in int) HopInfo {
	h := HopInfo{
		Router: r.ID, AS: r.AS, In: in, InKind: Host, FromAS: r.AS,
		Out: -1, ArrivedEncap: p.Encap,
	}
	if in >= 0 && in < len(r.Ports) {
		pt := &r.Ports[in]
		h.InKind = pt.Kind
		h.InRel = pt.Rel
		h.FromAS = pt.PeerAS
	}
	return h
}
