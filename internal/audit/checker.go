package audit

import "fmt"

// Checker validates the per-journey invariants online, one Step at a
// time. The zero value is ready to use; Reset recycles it without
// allocating. It never panics on malformed input — garbage steps produce
// violations (or nothing), not crashes, because the checker runs inside
// recording hot paths.
type Checker struct {
	visited   []int32 // ASes entered, in order
	curAS     int32
	started   bool
	descended bool // a down or across inter-AS edge has been taken
	prevEdge  EdgeClass
	steps     int
	vs        []Violation
}

// Reset clears the checker for a new journey, keeping its allocations.
func (c *Checker) Reset() {
	c.visited = c.visited[:0]
	c.started = false
	c.descended = false
	c.prevEdge = EdgeNone
	c.steps = 0
	c.vs = c.vs[:0]
}

// Violations returns the breaches found so far. The slice is owned by the
// checker and invalidated by Reset.
func (c *Checker) Violations() []Violation { return c.vs }

// Step appends one hop and evaluates every invariant it can affect; the
// breaches it finds join Violations.
func (c *Checker) Step(s Step) {
	idx := c.steps
	c.steps++

	// Loop-freedom: entering an AS we already left is a forwarding loop.
	// Consecutive steps in the same AS (iBGP hand-offs, multi-router
	// transit) are one visit.
	if !c.started || s.AS != c.curAS {
		for _, as := range c.visited {
			if as == s.AS {
				c.add(InvLoopFree, idx, fmt.Sprintf("packet re-entered AS %d", s.AS))
				break
			}
		}
		c.visited = append(c.visited, s.AS)
		c.curAS = s.AS
		c.started = true
	}

	// Encap arrival side: an encapsulated packet may only come over an
	// iBGP link, i.e. the previous step of this journey handed it off
	// internally.
	if s.EncapArrival && (idx == 0 || c.prevEdge != EdgeInternal) {
		c.add(InvEncapIBGP, idx, fmt.Sprintf("AS %d received an encapsulated packet over a non-iBGP link", s.AS))
	}

	// Valley-freedom, both formulations. The sequence form is the
	// theorem's statement (up* [across] down*); the tag form is Eq. 3
	// applied at every hop: exporting to a non-customer requires the
	// customer-entry tag. They coincide when tags are stamped honestly;
	// checking both catches a dishonest stamp too.
	switch s.Edge {
	case EdgeUp, EdgeAcross:
		if c.descended {
			c.add(InvValleyFree, idx, fmt.Sprintf("%s edge out of AS %d after the path already descended", s.Edge, s.AS))
		}
		if !s.Tag {
			c.add(InvValleyFree, idx, fmt.Sprintf("AS %d exported to a non-customer without the customer-entry tag", s.AS))
		}
		if s.Edge == EdgeAcross {
			c.descended = true // at most one peering edge, then only down
		}
	case EdgeDown:
		c.descended = true
	}

	// Encap departure side: encapsulation is the iBGP hand-off mechanism;
	// sending an encapsulated packet anywhere else leaks the outer header
	// across an AS boundary.
	if s.Encap && s.Edge != EdgeInternal {
		c.add(InvEncapIBGP, idx, fmt.Sprintf("AS %d sent an encapsulated packet over a %s edge", s.AS, s.Edge))
	}

	// Tag-drop justification: a valley-free drop (Refused set) must mean
	// the tag-check really failed — tag clear, refused egress a
	// non-customer. Anything else is a packet wrongly discarded.
	if s.Refused != EdgeNone {
		switch {
		case s.Tag:
			c.add(InvTagDrop, idx, fmt.Sprintf("AS %d tag-dropped a packet whose tag bit was set", s.AS))
		case s.Refused == EdgeDown:
			c.add(InvTagDrop, idx, fmt.Sprintf("AS %d tag-dropped a packet bound for a customer egress", s.AS))
		case s.Refused == EdgeInternal:
			c.add(InvTagDrop, idx, fmt.Sprintf("AS %d tag-dropped instead of encapsulating to an iBGP peer", s.AS))
		}
	}

	c.prevEdge = s.Edge
}

func (c *Checker) add(inv Invariant, step int, detail string) {
	c.vs = append(c.vs, Violation{Invariant: inv, Step: step, Detail: detail})
}
