package netsim

// recomputeRates assigns every active flow its max-min fair rate via
// progressive filling: repeatedly find the most constrained link, freeze
// its flows at the link's equal share, and subtract their demand from the
// rest of the network.
//
// The most constrained link is the root of a tournament tree over the
// positions of s.touched (see fairTree), so a round costs the links its
// frozen flows cross, each repaired along one root path, instead of a scan
// of every touched link. A recomputation is O(flow-link incidences × log
// touched links), independent of total topology size: scratch arrays are
// indexed by directed link id and reset lazily through the touched list.
//
// The tree only changes how the bottleneck is found. A link's share is
// still residual/count, taken after the round's subtractions in flow and
// path order; the winner is still the smallest share, first in touched
// order. Every rate and load therefore keeps the bits the linear scan gave
// it (referenceRates in rates_test.go is that scan).
func (s *Sim) recomputeRates() {
	// Reset loads from the previous allocation.
	for _, l := range s.touched {
		s.load[l] = 0
	}
	s.touched = s.touched[:0]

	if len(s.active) == 0 {
		return
	}

	// Seed scratch state for links used by active flows. Withdrawn flows
	// have no route and consume nothing.
	unallocated := 0
	for _, fi := range s.active {
		st := s.flows[fi]
		st.fixed = false
		st.rate = 0
		if st.withdrawn {
			st.fixed = true
			unallocated++
			continue
		}
		for _, l := range st.links {
			if s.count[l] == 0 {
				s.residual[l] = s.capac[l]
				s.flowsOn[l] = s.flowsOn[l][:0]
				s.pos[l] = int32(len(s.touched))
				s.touched = append(s.touched, l)
			}
			s.count[l]++
			s.flowsOn[l] = append(s.flowsOn[l], fi)
		}
	}

	t := &s.tree
	t.reset(len(s.touched))
	for i, l := range s.touched {
		t.share[i] = s.residual[l] / float64(s.count[l])
	}
	t.build()

	remaining := len(s.active) - unallocated
	for remaining > 0 {
		// The bottleneck: the unfrozen link with the smallest equal share.
		bp := t.winner()
		if bp < 0 {
			// No constrained links left (flows with zero-length paths do
			// not exist, so this cannot happen; guard anyway).
			break
		}
		best, bestShare := s.touched[bp], t.share[bp]
		if bestShare < 0 {
			bestShare = 0
		}
		// Freeze every unfixed flow crossing the bottleneck, noting each
		// link whose share the round moves.
		s.dirty = s.dirty[:0]
		for _, fi := range s.flowsOn[best] {
			st := s.flows[fi]
			if st.fixed {
				continue
			}
			st.fixed = true
			st.rate = bestShare
			remaining--
			for _, l := range st.links {
				s.residual[l] -= bestShare
				s.count[l]--
				if !s.isDirty[l] {
					s.isDirty[l] = true
					s.dirty = append(s.dirty, l)
				}
			}
		}
		for _, l := range s.dirty {
			s.isDirty[l] = false
			if s.count[l] == 0 {
				t.drain(s.pos[l])
			} else {
				t.update(s.pos[l], s.residual[l]/float64(s.count[l]))
			}
		}
	}

	// Publish loads.
	for _, l := range s.touched {
		s.load[l] = s.capac[l] - s.residual[l]
		if s.load[l] < 0 {
			s.load[l] = 0
		}
		s.count[l] = 0
	}
}

// fairTree is a tournament (winner) tree over positions 0..n-1 of the
// touched list. Leaf i holds position i while its link still carries an
// unfrozen flow and -1 once it has drained; an inner node holds the
// position its smaller-share child holds, the left child winning ties.
// Positions grow left to right, so the root is the live link with the
// smallest share and, among equals, the first in touched order — the link
// a scan with a strict < picks. A drained link is out of the running by
// its -1, not by a share value, so no share a live link can take (a dead
// link's 0, a rounding residue below 0) is mistaken for it.
//
// Shares must not be NaN: with finite capacities residual and count are
// finite and count > 0 for every live leaf, so they never are.
type fairTree struct {
	m     int       // leaf slots: the power of two >= n
	node  []int32   // 1-based heap layout, leaves at m..2m-1
	share []float64 // by position
}

// reset sizes the tree for n positions, all live, shares unset.
func (t *fairTree) reset(n int) {
	m := 1
	for m < n {
		m <<= 1
	}
	t.m = m
	if cap(t.node) < 2*m {
		t.node = make([]int32, 2*m)
		t.share = make([]float64, m)
	}
	t.node = t.node[:2*m]
	t.share = t.share[:m]
	for i := 0; i < n; i++ {
		t.node[m+i] = int32(i)
	}
	for i := n; i < m; i++ {
		t.node[m+i] = -1
	}
}

// build plays every match once the leaves' shares are set.
func (t *fairTree) build() {
	for k := t.m - 1; k >= 1; k-- {
		t.node[k] = t.play(t.node[2*k], t.node[2*k+1])
	}
}

// play returns the winner of a match between the positions two sibling
// subtrees hold (-1 for a subtree with no live leaf).
func (t *fairTree) play(left, right int32) int32 {
	if right < 0 || (left >= 0 && !(t.share[right] < t.share[left])) {
		return left
	}
	return right
}

// winner returns the position of the bottleneck, or -1 when every link has
// drained.
func (t *fairTree) winner() int32 { return t.node[1] }

// update gives live position p a new share and replays its root path.
func (t *fairTree) update(p int32, share float64) {
	t.share[p] = share
	t.replay(p)
}

// drain takes position p out of the running and replays the matches it had
// won. The first match it had lost needs no replay: whoever beat p there
// also beats what p had beaten below, by transitivity and the tie rule.
func (t *fairTree) drain(p int32) {
	t.node[t.m+int(p)] = -1
	for k := (t.m + int(p)) >> 1; k >= 1 && t.node[k] == p; k >>= 1 {
		t.node[k] = t.play(t.node[2*k], t.node[2*k+1])
	}
}

// replay repairs the matches above leaf p after its share changed. It stops at the first match whose winner is unchanged and is not
// p: that subtree then presents the same position with the same share to
// everything above it.
func (t *fairTree) replay(p int32) {
	for k := (t.m + int(p)) >> 1; k >= 1; k >>= 1 {
		w := t.play(t.node[2*k], t.node[2*k+1])
		if w == t.node[k] && w != p {
			return
		}
		t.node[k] = w
	}
}
