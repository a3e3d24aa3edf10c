package netsim

import "repro/internal/bgp"

// adaptFlow performs one MIFO control decision for a flow: return to a
// decongested default path, or deflect away from the first congested egress
// owned by a capable AS. It returns true when the flow's path changed.
//
// The decision mirrors the daemon + forwarding engine at flow granularity:
//
//   - congestion signal: utilization of the AS's egress link on the flow's
//     current path (the tx-queue ratio proxy);
//   - alternative choice: the RIB entry whose local link has the most spare
//     capacity (Section III-C's greedy rule);
//   - admissibility: the data-plane valley-free check with the entry bit
//     the packet would carry (Section III-A).
func (s *Sim) adaptFlow(st *flowState, table *bgp.Dest) bool {
	if st.done || st.unroutable || st.withdrawn {
		return false
	}

	// Switch back once the congestion that pushed the flow away clears
	// (hysteresis: ReturnThreshold < CongestionThreshold). The returning
	// flow books the link's spare capacity, so at most a couple of flows
	// return per control epoch — a stampede of returners would just
	// re-congest the default and oscillate.
	if st.onAlt && st.trigLink >= 0 && s.util(st.trigLink) <= s.cfg.ReturnThreshold {
		claim := s.spare(st.trigLink)
		if claim < st.rate {
			claim = st.rate
		}
		s.setPath(st, st.defPath, claim)
		st.onAlt = false
		st.trigLink = -1
		st.switches++
		s.recordFlowPath(st, -1)
		return true
	}

	// Walk the current path looking for a congested egress at a capable AS.
	for i := 0; i+1 < len(st.path); i++ {
		u := st.path[i]
		if !s.capable(u) {
			continue
		}
		egress := st.links[i]
		if s.util(egress) < s.cfg.CongestionThreshold {
			continue
		}
		// Expected gain gate: moving must plausibly raise the flow's rate.
		// The border router knows the flow's current rate through the
		// queue; a new flow's expectation is the egress' remaining spare.
		// Every switch the flow has already made raises the bar — the
		// damping that keeps path switching stable (Fig. 9): almost all
		// flows should settle after one or two switches.
		expected := st.rate
		if expected <= 0 {
			expected = s.spare(egress)
		}
		if s.capac[egress] <= 0 {
			expected = 0 // the egress is dead: any live alternative wins
		}
		for k := 0; k < st.switches; k++ {
			expected *= switchDamping
		}
		// Entry bit at u: set when the packet entered from a customer or
		// originated here.
		bit := i == 0 || s.g.IsCustomer(u, st.path[i-1])
		if newPath, claim, ok := s.bestAlternative(table, st.path, st.links, i, bit, expected); ok {
			if !st.onAlt {
				st.trigLink = egress
			}
			s.noteDeflection(egress)
			// Reserve the rate the flow expects to reach on the new path,
			// not its current (congested) rate: later decisions in this
			// control epoch must see the alternative as taken, or every
			// congested flow herds onto it and re-shares the congestion.
			if claim < st.rate {
				claim = st.rate
			}
			s.setPath(st, newPath, claim)
			st.onAlt = true
			st.usedAlt = true
			st.switches++
			s.recordFlowPath(st, i)
			return true
		}
	}
	return false
}

// deflectGain is the multiplicative improvement an alternative's spare
// capacity must offer over the flow's expected rate before a deflection is
// worthwhile. It keeps a flow that saturates a link alone (or the whole
// set of alternatives equally) from bouncing between paths.
const deflectGain = 1.1

// switchDamping multiplies the gain a further deflection must justify for
// every switch a flow has already made; it is what concentrates Fig. 9's
// switch distribution at one or two switches.
const switchDamping = 1.6

// bestAlternative selects the alternative path at hop i of the current
// path (links are its link ids): among RIB entries other than the current
// next hop, admissible under the valley-free check and loop-free after
// splicing, pick the one with the best quality (probe: spliced-path
// bottleneck spare; local-link: spare of the direct link). The winner must
// beat the flow's expected rate by deflectGain. It returns the full new
// path and the rate the flow can expect there (the quality estimate).
//
// Candidates are spliced in Sim scratch (the RIB in ribBuf, the route from
// u onward in cand, its link ids in candLinks) and only the winner is
// copied out, so an epoch that moves no flow allocates nothing here.
func (s *Sim) bestAlternative(table *bgp.Dest, path []int, links []int32, i int, bit bool, expected float64) ([]int, float64, bool) {
	u := path[i]
	curNext := path[i+1]
	// Never splice across a failed link: the border router's RIB entry may
	// predate the failure, but its line card knows the link is down. The
	// hops before u are the same for every candidate.
	if s.crossesDead(links[:i]) {
		return nil, -1, false
	}
	found := false
	bestSpare := -1.0
	alts := bgp.RIBInto(s.g, table, u, s.ribBuf)
	if alts != nil {
		s.ribBuf = alts[:0]
	}
	for _, alt := range alts {
		if int(alt.Via) == curNext {
			continue
		}
		// Tag-check (Eq. 3): entered from customer, or exiting to customer.
		if !bit && alt.Class != bgp.ClassCustomer {
			continue
		}
		l := s.linkID(u, int(alt.Via))
		if s.util(l) >= s.cfg.CongestionThreshold {
			continue // no point moving onto an equally congested link
		}
		sp := s.spare(l)
		if sp <= 0 || sp <= expected*deflectGain {
			continue // not enough local headroom to be worth a switch
		}
		if !s.splice(path[:i], table, u, int(alt.Via)) {
			continue // splicing would revisit an AS or cross a failed link
		}
		switch s.cfg.Quality {
		case QualityProbe:
			// Selective probing: quality is the bottleneck spare of the
			// path from the deflection point onward.
			sp = s.bottleneckSpare(s.candLinks)
			if sp <= expected*deflectGain {
				continue
			}
		case QualityFirst:
			// Route preference only: the RIB is sorted best-first, so
			// the first admissible candidate wins.
			return joinPath(path[:i], s.cand), sp, true
		}
		if sp > bestSpare {
			// Keep the candidate; the next one is built in the other buffer.
			s.cand, s.bestCand = s.bestCand, s.cand
			bestSpare, found = sp, true
		}
	}
	if !found {
		return nil, -1, false
	}
	return joinPath(path[:i], s.bestCand), bestSpare, true
}

// splice builds u's RIB route via the given neighbor in s.cand and its link
// ids in s.candLinks, and reports whether prefix + that route is usable: it
// must not revisit an AS nor cross a failed link. (The valley-free check
// makes true forwarding loops impossible; a revisit can still arise
// transiently in the fluid model when the prefix itself was already
// deflected, so we refuse such splices the way the loop filter would.)
func (s *Sim) splice(prefix []int, table *bgp.Dest, u, via int) bool {
	suffix := bgp.PathViaInto(table, u, via, s.cand)
	if suffix == nil {
		return false
	}
	s.cand = suffix
	// asSeen[v] == seenGen marks v as on this candidate.
	if s.asSeen == nil {
		s.asSeen = make([]uint32, s.g.N())
	}
	s.seenGen++
	if s.seenGen == 0 { // wrapped: old marks could read as current
		clear(s.asSeen)
		s.seenGen = 1
	}
	for _, part := range [2][]int{prefix, suffix} {
		for _, v := range part {
			if s.asSeen[v] == s.seenGen {
				return false
			}
			s.asSeen[v] = s.seenGen
		}
	}
	s.candLinks = s.appendPathLinks(s.candLinks[:0], suffix)
	return !s.crossesDead(s.candLinks)
}

// joinPath returns prefix + suffix in a slice of its own.
func joinPath(prefix, suffix []int) []int {
	path := make([]int, 0, len(prefix)+len(suffix))
	path = append(path, prefix...)
	return append(path, suffix...)
}

// setPath moves a flow onto a new path, releasing its current rate from
// the old links and booking `claim` on the new ones so that decisions made
// later in the same control epoch see the shift; exact loads are restored
// by the next recomputeRates.
func (s *Sim) setPath(st *flowState, path []int, claim float64) {
	for _, l := range st.links {
		s.load[l] -= st.rate
		if s.load[l] < 0 {
			s.load[l] = 0
		}
	}
	st.path = path
	st.links = s.pathLinks(path)
	for _, l := range st.links {
		s.load[l] += claim
	}
}

// miroChoose picks the flow's path at arrival under MIRO: if the default
// path's bottleneck is congested and the source can negotiate, use the
// negotiated alternative with the widest bottleneck. MIRO is control-plane
// multipath: the choice is made once, at flow start.
func (s *Sim) miroChoose(st *flowState, table *bgp.Dest) {
	bn := s.bottleneckUtil(st.links)
	if bn < s.cfg.CongestionThreshold {
		return // default path is fine
	}
	key := int64(st.Src)<<32 | int64(st.Dst)
	alts, ok := s.miroAlts[key]
	if !ok {
		alts = s.cfg.MIRO.Alternates(s.g, table, st.Src, s.cfg.Capable)
		s.miroAlts[key] = alts
	}
	bestSpare := s.bottleneckSpare(st.links)
	var bestPath []int
	for _, a := range alts {
		s.candLinks = s.appendPathLinks(s.candLinks[:0], a.Path)
		if sp := s.bottleneckSpare(s.candLinks); sp > bestSpare {
			bestSpare = sp
			bestPath = a.Path
		}
	}
	if bestPath != nil {
		st.path = bestPath
		st.links = s.pathLinks(bestPath)
		st.usedAlt = true
		st.switches++
	}
}

func (s *Sim) bottleneckUtil(links []int32) float64 {
	worst := 0.0
	for _, l := range links {
		if u := s.util(l); u > worst {
			worst = u
		}
	}
	return worst
}

func (s *Sim) bottleneckSpare(links []int32) float64 {
	best := s.cfg.LinkCapacityBps
	for _, l := range links {
		if sp := s.spare(l); sp < best {
			best = sp
		}
	}
	return best
}
