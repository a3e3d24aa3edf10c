package dataplane

import "repro/internal/topo"

// Forward executes Algorithm 1 (the MIFO forwarding engine) for one packet
// arriving on input port in (-1 for locally originated traffic). It mutates
// the packet's tag and encapsulation headers exactly as a border router
// would and returns the action to take.
//
// Note on line 11 of the paper's pseudocode: it reads
// "isCongest(Iout) or s = GetNextHop(Ialt)", but the prose of Section III-B
// compares the sender with the next hop of the *default* route ("If the
// nexthop equals to sender ... the packet is deflected from the default
// path"). We implement the prose; the pseudocode's Ialt is a typo (with
// Ialt the comparison could never detect a bounce, since the sender sits on
// the default path, not the alternative one).
//
//mifo:hotpath
func (r *Router) Forward(p *Packet, in int) Action {
	if r.Hop == nil {
		act, _ := r.forward(p, in)
		return act
	}
	// Flight-recorder path: capture the arrival context, run the engine,
	// then report the decision. Kept out of line so the common case pays
	// one nil check.
	h := r.hopInfo(p, in)
	act, refused := r.forward(p, in)
	h.Tag = p.Tag
	h.LeftEncap = p.Encap
	h.Deflected = act.Deflected
	h.Verdict = act.Verdict
	h.Reason = act.Reason
	if act.Verdict == VerdictForward {
		pt := &r.Ports[act.Port]
		h.Out = act.Port
		h.OutKind = pt.Kind
		h.OutRel = pt.Rel
		h.ToAS = pt.PeerAS
	}
	switch {
	case act.Deflected:
		h.AltTried = true
		h.AltRel = h.OutRel
	case refused >= 0:
		// The alternative the tag-check refused, from the same FIB read
		// the engine decided on: a concurrent commit cannot swap it.
		h.AltTried = true
		h.AltRel = r.Ports[refused].Rel
	}
	r.Hop(p, h)
	return act
}

// forward is the engine proper. Besides the action it returns the
// alternative port the valley-free tag-check refused (-1 unless the
// action is a DropValleyFree), so Forward can describe the refusal without
// a second FIB lookup.
//
//mifo:hotpath
func (r *Router) forward(p *Packet, in int) (Action, int) {
	// Lines 1-3: strip the outer IP header of an encapsulated packet and
	// remember the sender (an iBGP peer).
	sender := RouterID(-1)
	if p.Encap {
		if p.OuterDst != r.ID {
			// iBGP peers are directly connected (full mesh, Section IV);
			// a foreign outer destination is a wiring error.
			return Action{Verdict: VerdictDrop, Reason: DropNoRoute}, -1
		}
		sender = p.OuterSrc
		p.Encap = false
		p.OuterSrc, p.OuterDst = -1, -1
	}

	// Local delivery: the packet reached its destination AS.
	if r.Local[p.Dst] {
		return Action{Verdict: VerdictDeliver}, -1
	}

	// Line 4: FIB lookup.
	e, ok := r.FIB.Lookup(p.Dst)
	if !ok {
		return Action{Verdict: VerdictDrop, Reason: DropNoRoute}, -1
	}

	// Lines 5-10: at the packet entering point, tag one bit with the
	// relationship to the upstream neighbor. Locally originated traffic is
	// tagged as if from a customer: the source AS may use any RIB path.
	if in < 0 || r.Ports[in].Kind == Host {
		p.Tag = true
	} else if r.Ports[in].Kind == EBGP {
		p.Tag = r.Ports[in].Rel == topo.Customer
	}

	// Line 11: deflect on congestion (for flows the hash policy selects)
	// or when an iBGP peer bounced the packet to us because we own the
	// alternative path (sender equals the default next hop).
	bounced := sender >= 0 && sender == r.Ports[e.Out].Peer
	congested := r.MIFOEnabled && r.Congested(e.Out) && r.deflect(p.Flow)
	if (bounced || congested) && r.MIFOEnabled && e.Alt >= 0 {
		alt := &r.Ports[e.Alt]
		if alt.Kind == IBGP {
			// Lines 12-15: the alternative egress is another border
			// router; encapsulate and hand over.
			p.Encap = true
			p.OuterSrc = r.ID
			p.OuterDst = e.AltVia
			return Action{Verdict: VerdictForward, Port: e.Alt, Deflected: true}, -1
		}
		// Lines 16-20: tag-check. The alternative is valley-free iff the
		// downstream neighbor is a customer or the packet entered this AS
		// from a customer.
		if r.DisableTagCheck || alt.Rel == topo.Customer || p.Tag {
			return Action{Verdict: VerdictForward, Port: e.Alt, Deflected: true}, -1
		}
		return Action{Verdict: VerdictDrop, Reason: DropValleyFree}, e.Alt
	}

	// Line 22: default path.
	return Action{Verdict: VerdictForward, Port: e.Out}, -1
}

//mifo:hotpath
func (r *Router) deflect(k FlowKey) bool {
	if r.Deflect == nil {
		return true
	}
	return r.Deflect(k)
}
