package netsim

import "slices"

// recomputeRates assigns every active flow its max-min fair rate via
// progressive filling: repeatedly find the most constrained link, freeze
// its flows at the link's equal share, and subtract their demand from the
// rest of the network.
//
// The solver works over positions, not link ids: position p is the p-th
// link of s.touched, numbered in the order the active flows first cross
// them, and residual, count and the tree are dense by position. The
// rounds read a flat copy of the active flows' position lists (flowPos by
// flowOff) and the flows on each position (on by onOff, in active order),
// and write rates by active index, so no round reads a flow state; the
// rates are copied out at the end. A recomputation is O(flow-link
// incidences × log touched links), independent of total topology size.
//
// The most constrained link is the root of a tournament tree over the
// positions (see fairTree), so a round costs the links its frozen flows
// cross, each repaired along one root path, instead of a scan of every
// touched link. A position only one flow crosses is left out of the tree
// unless it is that flow's kept position, which it cannot beat.
//
// None of this changes the arithmetic. A link's share is still
// residual/count, taken after the round's subtractions in flow and path
// order; the winner is still the smallest share, first in touched order.
// Every rate and load therefore keeps the bits the linear scan gave it
// (referenceRates in rates_test.go is that scan).
func (s *Sim) recomputeRates() {
	// Reset loads from the previous allocation.
	for _, l := range s.touched {
		s.load[l] = 0
	}
	s.touched = s.touched[:0]

	if len(s.active) == 0 {
		return
	}

	// Number the links the active flows cross and copy each flow's
	// positions. Withdrawn flows have no route and consume nothing: their
	// lists are empty and their rate is 0 from the start. A rate below 0
	// marks a flow not yet frozen.
	touched, residual, count := s.touched, s.residual[:0], s.count[:0]
	flowPos, flowOff := s.flowPos[:0], append(s.flowOff[:0], 0)
	rates := s.rates[:0]
	unallocated := 0
	for _, fi := range s.active {
		st := s.flows[fi]
		if st.withdrawn {
			rates = append(rates, 0)
			flowOff = append(flowOff, int32(len(flowPos)))
			unallocated++
			continue
		}
		rates = append(rates, -1)
		for _, l := range st.links {
			p := s.pos[l]
			if p < 0 {
				p = int32(len(touched))
				s.pos[l] = p
				touched = append(touched, l)
				residual = append(residual, s.capac[l])
				count = append(count, 0)
			}
			count[p]++
			flowPos = append(flowPos, p)
		}
		flowOff = append(flowOff, int32(len(flowPos)))
	}
	s.touched, s.residual, s.count = touched, residual, count
	s.flowPos, s.flowOff, s.rates = flowPos, flowOff, rates

	n := len(touched)
	t := &s.tree
	t.share = grow(t.share, n)
	marked := grow(s.marked, n)
	onOff := grow(s.onOff, n+1)
	onOff[0] = 0
	for p := range touched {
		t.share[p] = residual[p] / float64(count[p])
		marked[p] = count[p] == 1
		onOff[p+1] = onOff[p] + count[p]
	}
	// The flows on each position, in active order: onOff[p] is first the
	// start of p's run, then its fill cursor, which ends at the start of
	// p+1's run and is shifted back once every flow is placed.
	//
	// A position only one flow crosses stays out of the tree unless it is
	// that flow's kept position, the one with the smallest (capacity,
	// position) among the flow's links. It cannot win a round while it is
	// out. Until the flow freezes, its residual is its capacity and its
	// share equals it. The kept position k is live for as long, and its
	// residual (its capacity less shares, which are never negative) and
	// share (residual over a count >= 1) are no greater than its capacity,
	// which is no greater than the left-out one's; on equal shares k wins
	// by position. When the flow freezes, the left-out position still takes
	// its subtraction, so its load comes out as before. It is marked as if
	// already dirty, so no round replays it.
	on := grow(s.on, len(flowPos))
	for a := range rates {
		ps := flowPos[flowOff[a]:flowOff[a+1]]
		single := false
		for _, p := range ps {
			on[onOff[p]] = int32(a)
			onOff[p]++
			if marked[p] {
				single = true
			}
		}
		if single {
			marked[keptPosition(ps, residual)] = false
		}
	}
	copy(onOff[1:], onOff[:n])
	onOff[0] = 0
	s.onOff, s.on, s.marked = onOff, on, marked
	t.plant(marked)

	dirty := s.dirty
	remaining := len(s.active) - unallocated
	for remaining > 0 {
		// The bottleneck: the unfrozen link with the smallest equal share.
		bp := t.winner()
		if bp < 0 {
			// No constrained links left (flows with zero-length paths do
			// not exist, so this cannot happen; guard anyway).
			break
		}
		bestShare := t.share[bp]
		if bestShare < 0 {
			bestShare = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck, noting each
		// position whose share the round moves.
		dirty = dirty[:0]
		for _, a := range on[onOff[bp]:onOff[bp+1]] {
			if rates[a] >= 0 {
				continue
			}
			rates[a] = bestShare
			remaining--
			for _, p := range flowPos[flowOff[a]:flowOff[a+1]] {
				residual[p] -= bestShare
				count[p]--
				if !marked[p] {
					marked[p] = true
					dirty = append(dirty, p)
				}
			}
		}
		for _, p := range dirty {
			marked[p] = false
			if count[p] == 0 {
				t.drain(p)
			} else {
				t.update(p, residual[p]/float64(count[p]))
			}
		}
	}
	s.dirty = dirty

	// Publish loads and rates, and free the positions for the next solve.
	for p, l := range touched {
		s.load[l] = s.capac[l] - residual[p]
		if s.load[l] < 0 {
			s.load[l] = 0
		}
		s.pos[l] = -1
	}
	for a, fi := range s.active {
		r := rates[a]
		if r < 0 {
			r = 0 // never frozen
		}
		s.flows[fi].rate = r
	}
}

// keptPosition returns the position among one flow's positions ps with
// the smallest (capacity, position); the seeded residual is the capacity.
func keptPosition(ps []int32, residual []float64) int32 {
	keep, keepCap := ps[0], residual[ps[0]]
	for _, p := range ps[1:] {
		if c := residual[p]; c < keepCap {
			keep, keepCap = p, c
		} else if c == keepCap {
			keep = min(keep, p)
		}
	}
	return keep
}

// grow returns buf resized to n. It reuses buf's array when that is big
// enough, entries keeping what they held; otherwise it allocates a zeroed
// one, growing as append does.
func grow[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// fairTree is a tournament (winner) tree over the positions of the touched
// list that are in the running: plant gives each a leaf, in position
// order, and leaves out the rest. A leaf holds its position while the link
// still carries an unfrozen flow, and -1 once it has drained; an inner
// node holds the position its smaller-share child holds, the left child
// winning ties. Positions grow left to right, so the root is the live link
// with the smallest share and, among equals, the first in touched order —
// the link a scan with a strict < picks. A drained link is out of the
// running by its -1, not by a share value, so no share a live link can
// take (a dead link's 0, a rounding residue below 0) is mistaken for it.
//
// Shares must not be NaN: with finite capacities residual and count are
// finite and count > 0 for every live leaf, so they never are.
type fairTree struct {
	m     int       // leaf slots: the power of two >= the planted positions
	node  []int32   // 1-based heap layout, leaves at m..2m-1
	leaf  []int32   // by position: its leaf slot, -1 if left out
	share []float64 // by position
}

// plant gives a leaf to every position p < len(out) with out[p] unset, in
// position order, and plays every match. The shares must be set. A
// left-out position's leaf entry is meaningless: only planted positions
// are updated or drained.
func (t *fairTree) plant(out []bool) {
	n := len(out)
	t.leaf = grow(t.leaf, n)
	m := 1
	for m < n {
		m <<= 1
	}
	t.node = grow(t.node, 2*m) // room for n, and for the tree of up to n leaves
	// Write each position at the next leaf index and advance the index
	// only past planted ones, so the planted positions end up in
	// node[:live] in order, without a branch on out.
	live := int32(0)
	for p, o := range out {
		t.leaf[p] = live
		t.node[live] = int32(p)
		next := live + 1
		if o {
			next = live
		}
		live = next
	}
	for m > 1 && m/2 >= int(live) {
		m >>= 1
	}
	t.m = m
	copy(t.node[m:m+int(live)], t.node[:live])
	for i := m + int(live); i < 2*m; i++ {
		t.node[i] = -1
	}
	for k := m - 1; k >= 1; k-- {
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

// update gives planted position p a new share and repairs the matches
// above its leaf. It stops at the first match whose winner is unchanged
// and is not p: that subtree then presents the same position with the same
// share to everything above it.
func (t *fairTree) update(p int32, share float64) {
	t.share[p] = share
	for k := (t.m + int(t.leaf[p])) >> 1; k >= 1; k >>= 1 {
		w := t.play(t.node[2*k], t.node[2*k+1])
		if w == t.node[k] && w != p {
			return
		}
		t.node[k] = w
	}
}

// drain takes planted position p out of the running and replays the
// matches it had won. The first match it had lost needs no replay: whoever
// beat p there also beats what p had beaten below, by transitivity and the
// tie rule.
func (t *fairTree) drain(p int32) {
	i := t.m + int(t.leaf[p])
	t.node[i] = -1
	for k := i >> 1; k >= 1 && t.node[k] == p; k >>= 1 {
		t.node[k] = t.play(t.node[2*k], t.node[2*k+1])
	}
}
