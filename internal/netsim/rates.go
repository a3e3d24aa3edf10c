package netsim

import (
	"cmp"
	"math"
	"slices"
)

// fairShare is the max-min solver's state, kept between solves: which
// flows cross which links (the membership), and the freeze order of the
// last solve. recomputeRates resumes from that order instead of solving
// from scratch (see resume).
//
// Everything is dense by slot. A link crossed by a member flow — an
// active flow that is not withdrawn — has a link slot for as long as it
// is crossed; a flow's slot is its index in Sim.flows. The member lists
// live in a slab (see slab) and a flow slot keeps its own array of link
// slots, so the membership costs no allocation once both have grown to
// the run's working set.
type fairShare struct {
	slotOf []int32 // by link id: its link slot, -1 if no member crosses it

	links []linkSlot // by link slot
	on    slab       // by link slot: the member flows crossing it, unordered
	free  []int32    // link slots not in use
	order []int32    // the live link slots, by key
	stale []int32    // link ids whose slot was freed since the last solve

	flows   []flowSlot // by flow slot
	members int        // member flows

	// The last solve's freeze order: round r froze the flows
	// frozen[rounds[r-1].end:rounds[r].end] (from 0 for r = 0).
	frozen []int32
	rounds []fairRound

	// What changed since the last solve: the earliest round a leaving flow
	// froze in (0 after a capacity change), and the flows that joined.
	leftAt int32
	joined []int32

	// Solve scratch, by link slot.
	residual []float64
	count    []int32 // member flows not yet frozen
	marked   []bool  // in dirty, watched, or left out of the tree
	dirty    []int32
	watched  []int32
	planted  []int32
	tree     fairTree
}

// linkSlot is a live link: its id, capacity and first-crossing key (see
// flowKey), the smallest over its members.
type linkSlot struct {
	key   int64
	capac float64
	link  int32
}

// flowSlot is a flow's part in the solve: its link slots, in path order,
// its kept slot (see recomputeRates), and how it froze in the last solve.
// The slots' array stays with the flow slot when the flow retires, so it
// is reused.
type flowSlot struct {
	slots []int32
	rate  float64 // < 0 while unfrozen
	round int32   // the round it froze in, -1 if none
	kept  int32   // -1 when the flow is not a member
}

// member reports whether the flow is active and not withdrawn.
func (fl *flowSlot) member() bool { return fl.kept >= 0 }

// fairRound is one round of a solve: it froze the flows up to frozen[end]
// at the share of link slot slot, before the clamp at 0.
type fairRound struct {
	end   int32
	slot  int32
	share float64
}

// flowKey is the first-crossing key of a flow's i-th link: the flow's
// arrival order, then i. Live links are ordered by it — the order in which
// the active flows, in arrival order, first cross them, which is the order
// the linear scan (referenceRates) meets them in.
func flowKey(ord, i int) int64 { return int64(ord)<<32 | int64(i) }

// noLeave is leftAt when no flow has left since the last solve.
const noLeave = math.MaxInt32

// init sizes the link map for numLinks links.
func (f *fairShare) init(numLinks int) {
	f.slotOf = make([]int32, numLinks)
	for i := range f.slotOf {
		f.slotOf[i] = -1
	}
}

// activate makes flow slot fi active: it joins the solver's membership
// unless its route is withdrawn.
func (s *Sim) activate(fi int32) {
	s.active = append(s.active, fi)
	f := &s.fair
	for len(f.flows) <= int(fi) {
		f.flows = append(f.flows, flowSlot{kept: -1})
	}
	if !s.flows[fi].withdrawn {
		s.join(fi)
	}
}

// join adds active flow slot fi, on its current links, to the membership.
// A flow's links are distinct, as a loop-free path's are.
func (s *Sim) join(fi int32) {
	f := &s.fair
	st := s.flows[fi]
	fl := &f.flows[fi]
	*fl = flowSlot{slots: slices.Grow(fl.slots[:0], len(st.links)), rate: -1, round: -1}
	f.members++
	f.joined = append(f.joined, fi)
	for i, l := range st.links {
		k := flowKey(st.ord, i)
		p := f.slotOf[l]
		switch {
		case p < 0:
			p = f.newSlot(linkSlot{key: k, capac: s.capac[l], link: l})
		case k < f.links[p].key:
			f.rekey(p, k)
		}
		f.on.push(p, fi)
		fl.slots = append(fl.slots, p)
	}
	fl.kept = f.keptSlot(fl.slots)
}

// leave takes active flow slot fi out of the membership; a flow that is
// not a member is left alone. The rounds before the one fi froze in are
// unchanged by its leaving (see resume).
func (s *Sim) leave(fi int32) {
	f := &s.fair
	fl := &f.flows[fi]
	if !fl.member() {
		return
	}
	if fl.round >= 0 && fl.round < f.leftAt {
		f.leftAt = fl.round
	}
	slots := fl.slots
	*fl = flowSlot{slots: slots[:0], rate: -1, round: -1, kept: -1}
	f.members--
	ord := s.flows[fi].ord
	for i, p := range slots {
		f.on.remove(p, fi)
		switch {
		case f.on.runs[p].n == 0:
			f.freeSlot(p)
		case f.links[p].key == flowKey(ord, i):
			f.rekey(p, s.firstKey(p))
		}
	}
}

// relink moves a flow onto new links: a member leaves on its old links
// and joins on the new ones.
func (s *Sim) relink(st *flowState, links []int32) {
	wasMember := int(st.fi) < len(s.fair.flows) && s.fair.flows[st.fi].member()
	if wasMember {
		s.leave(st.fi)
	}
	st.links = links
	if wasMember {
		s.join(st.fi)
	}
}

// setWithdrawn withdraws an active flow's route (it leaves the membership
// and gets no bandwidth) or restores it (it joins on its current links).
func (s *Sim) setWithdrawn(st *flowState, withdrawn bool) {
	if st.withdrawn == withdrawn {
		return
	}
	st.withdrawn = withdrawn
	if withdrawn {
		s.leave(st.fi)
	} else {
		s.join(st.fi)
	}
}

// setCapacity sets link l's capacity. The next solve starts from round 1.
func (s *Sim) setCapacity(l int32, c float64) {
	f := &s.fair
	s.capac[l] = c
	f.leftAt = 0
	if p := f.slotOf[l]; p >= 0 {
		f.links[p].capac = c
		for _, fi := range f.on.run(p) {
			f.flows[fi].kept = f.keptSlot(f.flows[fi].slots)
		}
	}
}

// firstKey recomputes link slot p's key from its members.
func (s *Sim) firstKey(p int32) int64 {
	f := &s.fair
	first := int32(-1)
	for _, fi := range f.on.run(p) {
		if first < 0 || s.flows[fi].ord < s.flows[first].ord {
			first = fi
		}
	}
	i := slices.Index(f.flows[first].slots, p)
	return flowKey(s.flows[first].ord, i)
}

// newSlot gives a link a link slot.
func (f *fairShare) newSlot(ls linkSlot) int32 {
	var p int32
	if n := len(f.free); n > 0 {
		p = f.free[n-1]
		f.free = f.free[:n-1]
		f.links[p] = ls
	} else {
		p = int32(len(f.links))
		f.links = append(f.links, ls)
		f.on.owner()
	}
	f.slotOf[ls.link] = p
	f.insert(p)
	return p
}

// freeSlot returns link slot p, which no member crosses any more.
func (f *fairShare) freeSlot(p int32) {
	f.remove(p)
	l := f.links[p].link
	f.slotOf[l] = -1
	f.stale = append(f.stale, l)
	f.free = append(f.free, p)
}

// rekey gives live link slot p the key k and moves it to k's place in
// the order.
func (f *fairShare) rekey(p int32, k int64) {
	f.remove(p)
	f.links[p].key = k
	f.insert(p)
}

// insert puts link slot p at its key's place in the order. A new
// arrival's links come last, so that case does not search.
func (f *fairShare) insert(p int32) {
	k := f.links[p].key
	if n := len(f.order); n == 0 || f.links[f.order[n-1]].key < k {
		f.order = append(f.order, p)
		return
	}
	f.order = slices.Insert(f.order, f.find(k), p)
}

// remove takes link slot p out of the order.
func (f *fairShare) remove(p int32) {
	i := f.find(f.links[p].key)
	f.order = slices.Delete(f.order, i, i+1)
}

// find returns the index in the order of the first slot with a key >= k.
func (f *fairShare) find(k int64) int {
	i, _ := slices.BinarySearchFunc(f.order, k, func(q int32, k int64) int {
		return cmp.Compare(f.links[q].key, k)
	})
	return i
}

// recomputeRates assigns every active flow its max-min fair rate via
// progressive filling: repeatedly find the most constrained link, freeze
// its flows at the link's equal share, and subtract their demand from the
// rest of the network.
//
// The solve resumes from the last one (see resume): the rounds before the
// first one a change since then can alter are replayed as subtractions, in
// freeze order, and only the rounds from there on are played. A round's
// most constrained link is the root of a tournament tree over the live
// link slots in key order (see fairTree), so it costs the links its frozen
// flows cross, each repaired along one root path. A link slot only one
// flow crosses is left out of the tree unless it is that flow's kept slot,
// which it cannot beat.
//
// None of this changes the arithmetic. A link's share is still
// residual/count, taken after the round's subtractions; the winner is
// still the smallest share, first in the order the active flows first
// cross the links. Every rate and load therefore keeps the bits the
// linear scan gave it (referenceRates in rates_test.go is that scan).
func (s *Sim) recomputeRates() {
	f := &s.fair
	for _, l := range f.stale {
		s.load[l] = 0
	}
	f.stale = f.stale[:0]

	n, c := len(f.links), cap(f.links)
	f.residual = grow(f.residual, n, c)
	f.count = grow(f.count, n, c)
	f.marked = grow(f.marked, n, c)
	residual, count, flows := f.residual, f.count, f.flows
	for _, p := range f.order {
		residual[p] = f.links[p].capac
		count[p] = f.on.runs[p].n
		f.marked[p] = false
	}
	k, lo := s.resume()

	// Forget the rounds from k on: their flows are unfrozen again.
	for _, fi := range f.frozen[lo:] {
		flows[fi].rate, flows[fi].round = -1, -1
	}
	f.frozen = f.frozen[:lo]
	f.rounds = f.rounds[:k]
	f.leftAt, f.joined = noLeave, f.joined[:0]

	// Plant the tree over the link slots that still carry an unfrozen
	// flow, in key order.
	//
	// A link slot only one flow crosses stays out of the tree unless it is
	// that flow's kept slot, the first of the flow's links in path order
	// with the smallest capacity. It cannot win a round while it is out.
	// Until the flow freezes, its residual is its capacity and its share
	// equals it. The kept slot is live for as long, and its residual (its
	// capacity less shares, which are never negative) and share (residual
	// over a count >= 1) are no greater than its capacity, which is no
	// greater than the left-out one's. On equal shares the kept slot wins
	// by key: it comes earlier in the flow's path, so its key is at most
	// the flow's key for it, which is below the flow's key for the
	// left-out slot, that slot's key. When the flow freezes, the left-out slot still takes its
	// subtraction, so its load comes out as before. It is marked as if
	// already dirty, so no round replays it.
	t := &f.tree
	t.share = grow(t.share, n, c)
	planted := f.planted[:0]
	for _, p := range f.order {
		cnt := count[p]
		if cnt == 0 {
			continue
		}
		out := f.on.runs[p].n == 1 && f.flows[f.on.run(p)[0]].kept != p
		f.marked[p] = out
		if !out {
			t.share[p] = residual[p] / float64(cnt)
			planted = append(planted, p)
		}
	}
	f.planted = planted
	t.plant(planted, n, c)

	remaining := f.members - int(lo)
	dirty := f.dirty
	round := int32(k)
	for remaining > 0 {
		// The bottleneck: the unfrozen link with the smallest equal share.
		bp := t.winner()
		if bp < 0 {
			// No constrained links left (flows with zero-length paths do
			// not exist, so this cannot happen; guard anyway).
			break
		}
		raw := t.share[bp]
		bestShare := raw
		if bestShare < 0 {
			bestShare = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck, noting each
		// link slot whose share the round moves.
		dirty = dirty[:0]
		for _, fi := range f.on.run(bp) {
			fl := &flows[fi]
			if fl.rate >= 0 {
				continue
			}
			fl.rate, fl.round = bestShare, round
			f.frozen = append(f.frozen, fi)
			remaining--
			for _, p := range flows[fi].slots {
				residual[p] -= bestShare
				count[p]--
				if !f.marked[p] {
					f.marked[p] = true
					dirty = append(dirty, p)
				}
			}
		}
		f.rounds = append(f.rounds, fairRound{end: int32(len(f.frozen)), slot: bp, share: raw})
		round++
		for _, p := range dirty {
			f.marked[p] = false
			if count[p] == 0 {
				t.drain(p)
			} else {
				t.update(p, residual[p]/float64(count[p]))
			}
		}
	}
	f.dirty = dirty
	if remaining > 0 {
		f.leftAt = 0 // some member never froze: the next solve starts over
	}

	// Publish loads and rates.
	for _, p := range f.order {
		ls := &f.links[p]
		load := ls.capac - residual[p]
		if load < 0 {
			load = 0
		}
		s.load[ls.link] = load
	}
	for _, fi := range s.active {
		r := flows[fi].rate
		if r < 0 {
			r = 0 // withdrawn, or never frozen
		}
		s.flows[fi].rate = r
	}
}

// resume replays the last solve's rounds up to the first one, k, that a
// change since then can alter, and returns k and the number of flows
// frozen before it. residual and count must hold every live link slot's
// capacity and member count.
//
// k is the earliest of: the round a leaving or moved flow froze in; for
// each joining or moved flow, the first round at which one of its links,
// with its count and key as they are now, is that round's bottleneck or
// would tie or beat it under (share, key); and 0 after a capacity change. Before k the new solve
// plays the same rounds: a flow that has not frozen has subtracted
// nothing, so a change only alters its own links' counts and keys, and a
// leaving flow only raises its links' shares and keys, which cannot make
// them win. So the state at k is the capacities less the earlier rounds'
// subtractions, taken in the same order.
func (s *Sim) resume() (k int, lo int32) {
	f := &s.fair
	stop := min(int(f.leftAt), len(f.rounds))
	if stop == 0 {
		return 0, 0
	}
	// The links of the flows that joined, once each.
	watched := f.watched[:0]
	for _, fi := range f.joined {
		if !f.flows[fi].member() {
			continue
		}
		for _, p := range f.flows[fi].slots {
			if !f.marked[p] {
				f.marked[p] = true
				watched = append(watched, p)
			}
		}
	}
	for _, p := range watched {
		f.marked[p] = false
	}
	f.watched = watched

	residual, count := f.residual, f.count
	for ; k < stop; k++ {
		rd := f.rounds[k]
		b, share := rd.slot, rd.share
		for _, p := range watched {
			sh := residual[p] / float64(count[p])
			if p == b || sh < share || sh == share && f.links[p].key < f.links[b].key {
				return k, lo
			}
		}
		if share < 0 {
			share = 0
		}
		hi := rd.end
		for _, fi := range f.frozen[lo:hi] {
			for _, p := range f.flows[fi].slots {
				residual[p] -= share
				count[p]--
			}
		}
		lo = hi
	}
	return k, lo
}

// keptSlot returns the first of a flow's link slots ps, in path order,
// with the smallest capacity (0 when there are none).
func (f *fairShare) keptSlot(ps []int32) int32 {
	if len(ps) == 0 {
		return 0
	}
	keep := ps[0]
	for _, p := range ps[1:] {
		if f.links[p].capac < f.links[keep].capac {
			keep = p
		}
	}
	return keep
}

// slab keeps one run of int32 per owner in a shared buffer. A run grows in
// place while it ends the buffer, and otherwise moves to the end with
// twice the room. An owner keeps its room when emptied, so once the owners
// have seen their largest runs nothing allocates. What a run leaves behind
// when it moves is less than the room it moves to (the rooms it had are
// halvings of it), so the buffer never holds more than twice the owners'
// rooms.
type slab struct {
	buf  []int32
	runs []run // by owner
}

// run is one owner's entries in a slab: buf[lo:lo+n], with room for c.
type run struct{ lo, n, c int32 }

// owner adds an owner with an empty run.
func (b *slab) owner() { b.runs = append(b.runs, run{}) }

// run returns owner o's run; it is valid until the next push or reset.
func (b *slab) run(o int32) []int32 {
	sp := b.runs[o]
	return b.buf[sp.lo : sp.lo+sp.n]
}

// push appends v to owner o's run.
func (b *slab) push(o, v int32) {
	sp := &b.runs[o]
	if sp.n == sp.c {
		b.reserve(o, max(2*sp.c, 2))
		sp = &b.runs[o]
	}
	b.buf[sp.lo+sp.n] = v
	sp.n++
}

// remove deletes one v from owner o's run, moving the last entry into
// its place.
func (b *slab) remove(o, v int32) {
	r := b.run(o)
	i := slices.Index(r, v)
	r[i] = r[len(r)-1]
	b.runs[o].n--
}

// reserve gives owner o room for c > its room entries, keeping its run.
func (b *slab) reserve(o, c int32) {
	sp := b.runs[o]
	if sp.c > 0 && int(sp.lo+sp.c) == len(b.buf) {
		b.buf = extend(b.buf, int(c-sp.c))
		b.runs[o].c = c
		return
	}
	lo := len(b.buf)
	b.buf = extend(b.buf, int(c))
	copy(b.buf[lo:], b.buf[sp.lo:sp.lo+sp.n])
	b.runs[o] = run{lo: int32(lo), n: sp.n, c: c}
}

// extend lengthens buf by n entries, doubling its room when it runs out.
func extend(buf []int32, n int) []int32 {
	if len(buf)+n > cap(buf) {
		next := make([]int32, len(buf), max(2*cap(buf), len(buf)+n, 256))
		copy(next, buf)
		buf = next
	}
	return buf[:len(buf)+n]
}

// grow returns buf resized to n <= c. It reuses buf's array when that is
// big enough, entries keeping what they held; otherwise it allocates a
// zeroed one with room for c. Scratch by link slot passes the room of the
// link slots' array, so it grows when that array does.
func grow[T any](buf []T, n, c int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]T, n, c)
}

// fairTree is a tournament (winner) tree over the planted link slots: plant
// gives each a leaf, in the order given (key order). A leaf holds its slot
// while the link still carries an unfrozen flow, and -1 once it has
// drained; an inner node holds the slot its smaller-share child holds, the
// left child winning ties. Keys grow left to right, so the root is the
// live link with the smallest share and, among equals, the smallest key —
// the link a scan with a strict < picks. A drained link is out of the
// running by its -1, not by a share value, so no share a live link can
// take (a dead link's 0, a rounding residue below 0) is mistaken for it.
//
// Shares must not be NaN: with finite capacities residual and count are
// finite and count > 0 for every live leaf, so they never are.
type fairTree struct {
	m     int       // leaf slots: the power of two >= the planted slots
	node  []int32   // 1-based heap layout, leaves at m..2m-1
	leaf  []int32   // by link slot: its leaf index; meaningful when planted
	share []float64 // by link slot
}

// plant gives a leaf to each of the link slots in planted (all < n <= c), in
// that order, and plays every match. Their shares must be set. Only
// planted slots are updated or drained.
func (t *fairTree) plant(planted []int32, n, c int) {
	t.leaf = grow(t.leaf, n, c)
	m := 1
	for m < len(planted) {
		m <<= 1
	}
	t.m = m
	t.node = grow(t.node, 2*m, 2*m)
	for i, p := range planted {
		t.leaf[p] = int32(i)
	}
	copy(t.node[m:], planted)
	for i := m + len(planted); i < 2*m; i++ {
		t.node[i] = -1
	}
	for k := m - 1; k >= 1; k-- {
		t.node[k] = t.play(t.node[2*k], t.node[2*k+1])
	}
}

// play returns the winner of a match between the slots two sibling
// subtrees hold (-1 for a subtree with no live leaf).
func (t *fairTree) play(left, right int32) int32 {
	if right < 0 || (left >= 0 && !(t.share[right] < t.share[left])) {
		return left
	}
	return right
}

// winner returns the slot of the bottleneck, or -1 when every link has
// drained.
func (t *fairTree) winner() int32 { return t.node[1] }

// update gives planted slot p a new share and repairs the matches above
// its leaf. It stops at the first match whose winner is unchanged and is
// not p: that subtree then presents the same slot with the same share to
// everything above it.
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

// drain takes planted slot p out of the running and replays the matches
// it had won. The first match it had lost needs no replay: whoever beat p
// there also beats what p had beaten below, by transitivity and the tie
// rule.
func (t *fairTree) drain(p int32) {
	i := t.m + int(t.leaf[p])
	t.node[i] = -1
	for k := i >> 1; k >= 1 && t.node[k] == p; k >>= 1 {
		t.node[k] = t.play(t.node[2*k], t.node[2*k+1])
	}
}
