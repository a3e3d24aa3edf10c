// Package audit is the packet flight recorder and online invariant
// auditor for the MIFO forwarding stack.
//
// The paper's central correctness claim (Section III-A, Theorem 1) is that
// the one-bit valley-free tag-check makes multi-path interdomain
// forwarding loop-free on the data plane. This package lets every
// simulator and the UDP fabric *verify* that claim empirically, on live
// traffic: a Recorder captures each packet's full hop journey — AS and
// router visited, relationship class of every inter-AS edge, tag bit,
// encapsulation state, deflection events — into compact append-only
// records, and a Checker validates per-packet invariants online as hops
// are appended:
//
//   - loop-free: no AS is revisited after the packet left it;
//   - valley-free: the inter-AS edge sequence is up* [across] down*, and
//     every export to a non-customer carries the customer-entry tag
//     (Eq. 3 at every hop, not just at deflections);
//   - encap-ibgp: IP-in-IP encapsulation travels only between iBGP peers
//     of the same AS;
//   - tag-drop: a valley-free drop happens only when the tag-check
//     actually fails (tag clear and the refused alternative is a
//     non-customer edge).
//
// Records stream as JSONL for offline analysis by `mifo-inspect flight`;
// violations increment obs counters and emit structured trace events so a
// live run surfaces them immediately. In a correct deployment every
// violation count is zero — the auditor is the experiment-scale witness
// for Theorem 1.
package audit

import "fmt"

// EdgeClass classifies the edge a packet takes when leaving a router,
// in Gao-Rexford terms relative to the current AS.
type EdgeClass int8

const (
	// EdgeNone marks a final hop (delivery or drop): no egress edge.
	EdgeNone EdgeClass = iota
	// EdgeUp goes to a provider of the current AS.
	EdgeUp
	// EdgeAcross goes to a settlement-free peer.
	EdgeAcross
	// EdgeDown goes to a customer.
	EdgeDown
	// EdgeInternal goes to an iBGP peer inside the same AS.
	EdgeInternal
)

// String returns a short edge-class name.
func (e EdgeClass) String() string {
	switch e {
	case EdgeNone:
		return "none"
	case EdgeUp:
		return "up"
	case EdgeAcross:
		return "across"
	case EdgeDown:
		return "down"
	case EdgeInternal:
		return "internal"
	default:
		return fmt.Sprintf("EdgeClass(%d)", int(e))
	}
}

// MarshalText renders the class as its name so JSONL records read well.
func (e EdgeClass) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText parses an edge-class name.
func (e *EdgeClass) UnmarshalText(b []byte) error {
	for c := EdgeNone; c <= EdgeInternal; c++ {
		if c.String() == string(b) {
			*e = c
			return nil
		}
	}
	return fmt.Errorf("audit: unknown edge class %q", b)
}

// Invariant identifies one of the audited per-packet invariants.
type Invariant int8

const (
	// InvLoopFree fires when a packet re-enters an AS it already left.
	InvLoopFree Invariant = iota
	// InvValleyFree fires when the edge sequence has a valley — an up or
	// across edge after the path already descended — or when a router
	// exports to a non-customer without the customer-entry tag.
	InvValleyFree
	// InvEncapIBGP fires when IP-in-IP encapsulation crosses anything but
	// an iBGP link (or arrives over one that is not iBGP).
	InvEncapIBGP
	// InvTagDrop fires when a valley-free drop was not justified: the tag
	// bit was set, or the refused alternative was a customer egress.
	InvTagDrop

	numInvariants = 4
)

// Invariants lists every audited invariant, for iteration.
var Invariants = [numInvariants]Invariant{InvLoopFree, InvValleyFree, InvEncapIBGP, InvTagDrop}

// String returns the invariant's short name.
func (v Invariant) String() string {
	switch v {
	case InvLoopFree:
		return "loop-free"
	case InvValleyFree:
		return "valley-free"
	case InvEncapIBGP:
		return "encap-ibgp"
	case InvTagDrop:
		return "tag-drop"
	default:
		return fmt.Sprintf("Invariant(%d)", int(v))
	}
}

// MarshalText renders the invariant as its name.
func (v Invariant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses an invariant name.
func (v *Invariant) UnmarshalText(b []byte) error {
	for _, c := range Invariants {
		if c.String() == string(b) {
			*v = c
			return nil
		}
	}
	return fmt.Errorf("audit: unknown invariant %q", b)
}

// Violation is one detected invariant breach, anchored at a step index of
// its record.
type Violation struct {
	Invariant Invariant `json:"invariant"`
	// Step is the index into Record.Steps where the breach was detected.
	Step int `json:"step"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail,omitempty"`
}

// Step is one recorded hop of a journey. At packet granularity a step is
// one forwarding decision at one router; at flow granularity (netsim) a
// step is one AS of an installed path and Router is -1.
type Step struct {
	// Router is the deciding router, or -1 for AS-granularity records.
	Router int32 `json:"router"`
	// AS is the AS making the decision.
	AS int32 `json:"as"`
	// Edge classifies the egress edge (EdgeNone on the final hop).
	Edge EdgeClass `json:"edge"`
	// Tag is the valley-free bit after entry stamping at this hop.
	Tag bool `json:"tag,omitempty"`
	// Encap marks an IP-in-IP hand-off leaving this hop; EncapArrival
	// marks the packet arriving encapsulated.
	Encap        bool `json:"encap,omitempty"`
	EncapArrival bool `json:"encap_arrival,omitempty"`
	// Deflected marks a hop that moved the packet onto its alternative
	// path (directly or via encapsulation).
	Deflected bool `json:"deflected,omitempty"`
	// Refused is the relationship class of an alternative egress refused
	// by the tag-check (set on valley-free drop steps only).
	Refused EdgeClass `json:"refused,omitempty"`
}

// Record kinds.
const (
	// KindPacket is a per-packet journey recorded via the dataplane hook.
	KindPacket = "packet"
	// KindPath is a flow-granularity path install recorded by netsim.
	KindPath = "flow-path"
)

// Record verdicts.
const (
	// VerdictDelivered: the packet reached its destination AS.
	VerdictDelivered = "delivered"
	// VerdictDropped: the forwarding engine discarded it (Reason says why).
	VerdictDropped = "dropped"
	// VerdictLost: the packet left the engine but never finished — tx
	// queue overflow, or still in flight when the recorder closed.
	VerdictLost = "lost"
	// VerdictPath: a flow-granularity path install (not a packet fate).
	VerdictPath = "path"
)

// Record is one journey: a packet's hop-by-hop trip through the network,
// or one path installed for a flow. It is the JSONL unit `mifo-inspect
// flight` consumes.
type Record struct {
	// Seq is the recorder-assigned sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Kind is KindPacket or KindPath.
	Kind string `json:"kind"`
	// Flow identifies the flow (five-tuple hash at packet granularity,
	// flow ID at flow granularity); PktID separates packets of a flow.
	Flow  uint64 `json:"flow"`
	PktID uint16 `json:"pkt_id,omitempty"`
	// Dst is the destination prefix identifier.
	Dst int32 `json:"dst"`
	// Steps is the journey, in order.
	Steps []Step `json:"steps"`
	// Verdict is one of the Verdict* constants; Reason explains a drop or
	// loss.
	Verdict string `json:"verdict"`
	Reason  string `json:"reason,omitempty"`
	// Deflections counts deflected steps.
	Deflections int `json:"deflections,omitempty"`
	// BaselineLen is the default BGP path length in AS hops (for stretch
	// analysis); 0 when unknown.
	BaselineLen int `json:"baseline_len,omitempty"`
	// Violations lists every invariant breach found in this journey —
	// empty in a correct deployment.
	Violations []Violation `json:"violations,omitempty"`
}

// ASPathLen returns the journey length in AS hops (consecutive steps in
// the same AS collapse, the way dataplane.Result.ASPath does).
func (r *Record) ASPathLen() int {
	n := 0
	var last int32
	for i, s := range r.Steps {
		if i == 0 || s.AS != last {
			n++
			last = s.AS
		}
	}
	return n
}
