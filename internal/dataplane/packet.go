// Package dataplane implements MIFO's forwarding engine — the part the
// paper ships as a Linux kernel module — as an in-process router network.
//
// It provides the packet model (including the one-bit valley-free tag and
// IP-in-IP encapsulation headers), the FIB extended with an alternative
// port, and Algorithm 1's per-packet forwarding procedure, plus a Network
// that wires routers together so packets can be traced hop by hop.
package dataplane

import "fmt"

// FlowKey is the five-tuple that identifies a flow. Forwarding decisions
// are deterministic per flow to avoid packet reordering (Section II-A).
type FlowKey struct {
	SrcAddr uint32
	DstAddr uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Hash returns a stable FNV-1a hash of the five-tuple.
func (k FlowKey) Hash() uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime
	}
	for i := 0; i < 4; i++ {
		mix(byte(k.SrcAddr >> (8 * i)))
	}
	for i := 0; i < 4; i++ {
		mix(byte(k.DstAddr >> (8 * i)))
	}
	mix(byte(k.SrcPort))
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.DstPort))
	mix(byte(k.DstPort >> 8))
	mix(k.Proto)
	return h
}

// RouterID identifies a router within a Network.
type RouterID int32

// Packet is the unit the forwarding engine operates on.
type Packet struct {
	// Flow is the five-tuple; hashing it pins the packet's flow to one path.
	Flow FlowKey
	// ID distinguishes packets of the same flow, so a flight recorder can
	// stitch hops observed at different routers into one journey. It rides
	// in the IPv4 Identification field on the wire (see MarshalPacket) and
	// is otherwise ignored by the forwarding engine.
	ID uint16
	// Dst is the destination prefix identifier looked up in the FIB
	// (an AS identifier at the granularity this repository simulates).
	Dst int32
	// Tag is the paper's "one more bit": set when the packet entered the
	// current AS from a customer (Vi-1 < Vi), cleared otherwise. It is
	// written by the AS's entering border router and read by the exit
	// border router's valley-free check.
	Tag bool
	// Encap marks an IP-in-IP encapsulated packet travelling between iBGP
	// peers; OuterSrc and OuterDst are the outer header's addresses.
	Encap    bool
	OuterSrc RouterID
	OuterDst RouterID
	// TTL bounds the number of forwarding steps; Deliver decrements it.
	TTL int
}

// Verdict is the outcome of one forwarding decision.
type Verdict int8

const (
	// VerdictForward means the packet leaves through Action.Port.
	VerdictForward Verdict = iota
	// VerdictDeliver means the packet reached its destination router.
	VerdictDeliver
	// VerdictDrop means the packet was discarded; Action.Reason says why.
	VerdictDrop
)

// String returns a short verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictDeliver:
		return "deliver"
	case VerdictDrop:
		return "drop"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// DropReason explains a VerdictDrop.
type DropReason int8

const (
	// DropNone is set on non-drop actions.
	DropNone DropReason = iota
	// DropNoRoute means the FIB had no entry for the destination.
	DropNoRoute
	// DropValleyFree means the tag-check failed: forwarding to the
	// alternative path would have violated the valley-free constraint
	// (this is the drop on line 20 of Algorithm 1 that cuts loops).
	DropValleyFree
	// DropTTL means the packet exceeded its hop budget — in a correct
	// MIFO deployment this never fires; it exists to catch loops in tests.
	DropTTL
)

// String returns a short reason name.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropNoRoute:
		return "no-route"
	case DropValleyFree:
		return "valley-free"
	case DropTTL:
		return "ttl"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Action is the result of Router.Forward for one packet.
type Action struct {
	Verdict Verdict
	// Port is the output port index when Verdict == VerdictForward.
	Port int
	// Reason is set when Verdict == VerdictDrop.
	Reason DropReason
	// Deflected reports that the packet was sent to the alternative path
	// (either directly or via encapsulation to an iBGP peer).
	Deflected bool
}
