package bgp

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/topo"
)

// cutRows is the failed-link filter of one link event: for every endpoint
// of a failed link, the neighbours it has lost, and its CustomerRanks and
// CustomerSlots rows without them. Every other AS reads its rows off the
// intact graph, and an endpoint reads them too, passing over what it lost,
// so repair never needs the cut graph built and every index it writes is
// into the intact graph's rows. A Table keeps one and refills it per event.
type cutRows struct {
	ends  []uint64 // bitset over ASes: set for the ASes that have lost links
	at    map[int32]int32
	ases  []int32   // the ASes that have lost links, lost[i], ranks[i] and slots[i] being ases[i]'s
	lost  [][]int32 // the neighbours each has lost
	ranks [][]int32 // its CustomerRanks without them; nil for a stub
	slots [][]int32 // its CustomerSlots beside those
}

// reset refills c for the graph g without the links in failed. Each
// endpoint's rank and slot rows are filtered by a scan of the far ends it
// lost, a list of one or a few, so no neighbour costs a lookup in failed.
func (c *cutRows) reset(g *topo.Graph, failed map[topo.LinkRef]bool) {
	if words := (g.N() + 63) / 64; len(c.ends) != words {
		c.ends, c.at = make([]uint64, words), make(map[int32]int32)
	}
	for v := range c.at {
		c.ends[v>>6] = 0
	}
	clear(c.at)
	c.ases, c.lost, c.ranks, c.slots = c.ases[:0], c.lost[:0], c.ranks[:0], c.slots[:0]
	for l := range failed {
		c.lose(int32(l.A), int32(l.B))
		c.lose(int32(l.B), int32(l.A))
	}
	order, rank := g.ProviderOrder(), g.ProviderRanks()
	for i, v := range c.ases {
		var ranks, slots []int32
		if r := int(rank[v]); r < g.TailStart() {
			all := g.CustomerRanks(r)
			buf := make([]int32, 2*len(all))
			ranks, slots = buf[:0:len(all)], buf[len(all):len(all)]
			for k, rc := range all {
				if !slices.Contains(c.lost[i], order[rc]) {
					ranks, slots = append(ranks, rc), append(slots, g.CustomerSlots(r)[k])
				}
			}
		}
		c.ends[v>>6] |= 1 << (v & 63)
		c.ranks, c.slots = append(c.ranks, ranks), append(c.slots, slots)
	}
}

// lose notes that v lost its link to u, making v an endpoint of c.
func (c *cutRows) lose(v, u int32) {
	i, ok := c.at[v]
	if !ok {
		i = int32(len(c.ases))
		c.at[v], c.ases = i, append(c.ases, v)
		if len(c.lost) < cap(c.lost) {
			c.lost = c.lost[:i+1]
			c.lost[i] = c.lost[i][:0] // an earlier event's list, reused
		} else {
			c.lost = append(c.lost, nil)
		}
	}
	c.lost[i] = append(c.lost[i], u)
}

// of returns the index of v among c's endpoints, or -1 when v has lost no
// link and its rows are the graph's.
func (c *cutRows) of(v int32) int32 {
	if c.ends[v>>6]&(1<<(v&63)) == 0 {
		return -1
	}
	return c.at[v]
}

// lostBy returns the neighbours v has lost, nil when none.
func (c *cutRows) lostBy(v int32) []int32 {
	if i := c.of(v); i >= 0 {
		return c.lost[i]
	}
	return nil
}

// Repair gives up, and the caller runs Compute on the cut graph instead,
// whenever a route of hopsSentinel hops or more is involved — those do not
// carry their length in the word, and the class-then-word comparison below
// cannot order them — and when the region a LinkDown rebuilds from nothing
// is more than 1/repairMaxRegionShare of the graph. The region holds only
// customer and peer routes, so it reaches that size only where most of the
// graph climbs to the destination through one AS (TestRecomputeFanIn's
// fan-in); the first fallback of an event also pays for the cut graph
// Compute wants (3.3 MB at paper scale), which repair alone never builds.
const repairMaxRegionShare = 2

// crossOffer is a route announcement over the link a LinkUp restored.
type crossOffer struct {
	from, to int32
	class    Class // the route's class at to
}

// repairScratch is what one repair needs beside the result: the bucket
// queue, the region, and the sweep's marks. Pooled like computeScratch; the
// mark bitsets are grown to the graph at hand and handed back all zero.
//
// Repair works on the stored words alone, which are indexed by rank: a stub
// other than the destination announces nothing, so no stored word depends
// on a stub's, and a stub's word follows from the stored ones when read.
// What repair does for the stubs is the result's side table (cutStubs).
// Its words index the intact graph's rows, old's included (see rebased),
// and the embedded scratch's far is the far side table of the words being
// written, which the result copies.
type repairScratch struct {
	computeScratch

	// The repair in progress; nil between repairs.
	g      *topo.Graph
	cut    *cutRows
	dst    int32
	order  []int32  // g.ProviderOrder()
	rank   []int32  // g.ProviderRanks()
	old    []uint16 // the stored words before the event, read only
	oldFar farTable // their far side table, read only
	packed []uint16 // the result: old with what the event changed rewritten
	cross  []crossOffer

	region []int32 // LinkDown: the ASes whose routes are rebuilt from nothing, each once, parents before children

	// The phase-3 sweep's marks, bitsets over ranks: visit for the ASes
	// whose word may have changed, and full for those of them that must
	// take their provider route afresh.
	visit, full []uint64
	bail        bool // a route reached hopsSentinel hops
	visits      int  // ASes the last repair's sweep visited; tests and the benchmark read it
}

var repairPool = sync.Pool{New: func() any { return new(repairScratch) }}

// repair returns old's destination's table after the link (a, b) went down
// (up false) or came back (up true): the routes of Compute on g without
// the links cut filters out, at every AS, or nil when the caller has to run
// that Compute itself (see repairMaxRegionShare; also when old's words are
// not ranked by g's provider-first order). old is the table from just
// before the event and is only read; the result is a fresh array, whatever
// the event changed, indexes g's rows and derives its stubs' words from g.
//
// Compute's result is the one assignment in which every AS holds the best
// of the routes its neighbours' words offer it (class, then length, then
// lowest next hop, under valley-free export). repair starts from old,
// which is that assignment for the graph before the event, and settles
// customer and peer routes first, then provider routes:
//
//   - On LinkDown the region — the endpoint that routed over the link and
//     the ASes whose customer or peer route runs through it — is cleared
//     and pulls offers again. Removing a link only shrinks customer cones,
//     so no AS ends with a better class than it had (the class floor): a
//     region AS pulls only the relationships whose class is no better than
//     its old one. No other AS's customer or peer route can change. When
//     the endpoint is a stub, no stored word can.
//   - On LinkUp nothing is cleared. The two announcements the link carries
//     are offered to its endpoints, and whatever they improve spreads.
//
// Phases 1 and 2 then push every changed customer route up and across,
// shortest first, as Compute does. Phase 3 is one sweep in the graph's
// provider-first order over the ASes whose word may have changed (see
// sweep). It recomputes provider routes rather than only improving them,
// so both traps are on its wave: on LinkDown an AS that falls back from a
// long customer route to a short peer route offers its customers a shorter
// provider route than before, and on LinkUp an AS that takes a better class
// over a longer path leaves the customers that used it to choose again.
func (sc *repairScratch) repair(g *topo.Graph, cut *cutRows, old *Dest, a, b int, up bool) *Dest {
	rank := g.ProviderRanks()
	if len(old.overflow) > 0 || unsafe.SliceData(old.rank) != unsafe.SliceData(rank) {
		return nil
	}
	sc.old, sc.oldFar = old.packed, old.far
	if old.g != g {
		var ok bool
		if sc.old, sc.oldFar, ok = rebased(old, g); !ok {
			return nil
		}
	}
	if words := (len(old.packed) + 63) / 64; len(sc.visit) < words {
		sc.visit, sc.full = make([]uint64, words), make([]uint64, words)
	}
	sc.g, sc.cut, sc.dst, sc.order, sc.rank, sc.packed = g, cut, old.dst, g.ProviderOrder(), rank, nil
	sc.cross, sc.region = sc.cross[:0], sc.region[:0]
	sc.bail, sc.visits = false, 0
	defer func() {
		sc.g, sc.cut, sc.order, sc.rank, sc.old, sc.oldFar, sc.packed = nil, nil, nil, nil, nil, nil, nil
	}()

	if up {
		rel, _ := g.Rel(a, b) // b's role as a sees it, and so the class at a of what b announces
		// A stub takes what the link offers it when read.
		for _, x := range [2]crossOffer{
			{from: int32(b), to: int32(a), class: classOf(rel)},
			{from: int32(a), to: int32(b), class: classOf(rel.Invert())},
		} {
			if sc.stored(x.to) {
				sc.cross = append(sc.cross, x)
			}
		}
	} else if int(old.next32(a)) == b {
		sc.addSubtree(int32(a))
	} else if int(old.next32(b)) == a {
		sc.addSubtree(int32(b))
	}
	if len(sc.region) > g.N()/repairMaxRegionShare {
		return nil
	}
	// Clone rather than make and copy: make clears the array the copy is
	// about to fill, while Clone's growslice clears only the capacity past
	// the copied length, which Clip then hides.
	sc.packed = slices.Clip(slices.Clone(sc.old))
	sc.far = append(sc.far[:0], sc.oldFar...)
	for _, v := range sc.region {
		sc.set(rank[v], unreachableEntry, -1)
	}
	for h := range sc.buckets {
		sc.buckets[h] = sc.buckets[h][:0]
	}
	// Phase 1: customer routes climb provider links.
	sc.pull(topo.Customer)
	sc.spread(topo.Provider)
	// Phase 2: customer routes cross one peer link. The takers queue up
	// among the customer routes and are passed over by their class.
	sc.pull(topo.Peer)
	sc.spread(topo.Peer)
	// Phase 3: every route descends customer links.
	sc.markChanged()
	sc.sweep()
	if sc.bail {
		return nil
	}
	d := &Dest{dst: old.dst, g: g, rank: rank, packed: sc.packed}
	d.keepFar(sc.far)
	if d.stubs = sc.cutStubs(d); sc.bail {
		return nil
	}
	return d
}

// rebased returns old's stored words and far side table with their indices
// into g's rows, and whether every next hop is in them: for a table
// computed on a graph that g is the intact graph of (a fallback's Compute
// on the cut graph), whose rows are g's without the neighbours it lost.
func rebased(old *Dest, g *topo.Graph) ([]uint16, farTable, bool) {
	packed := slices.Clone(old.packed)
	var far farTable
	order := g.ProviderOrder()
	for r, w := range packed {
		c := wordClass(w)
		if c == ClassOrigin || c == ClassUnreachable {
			continue
		}
		v := order[r]
		u := old.nextOf(v, w)
		i, ok := slices.BinarySearch(g.Related(int(v), relOf(c)), u)
		if !ok {
			return nil, nil, false
		}
		packed[r] = routeWord(int(w>>hopsShift), c, i)
		if i >= idxEscape {
			far = append(far, farHop{as: v, next: u})
		}
	}
	slices.SortFunc(far, func(a, b farHop) int { return cmp.Compare(a.as, b.as) })
	return packed, far, true
}

// stored reports whether v's word is stored: whether v is no stub.
func (sc *repairScratch) stored(v int32) bool { return int(sc.rank[v]) < len(sc.old) }

// set writes w, whose next hop is next, as the word of the AS ranked r, and
// keeps the far side table in step. Only an escaped word, or one replacing
// an escaped word, changes it: the two words' index fields then OR to
// idxEscape, which short rows' indices seldom do otherwise.
func (sc *repairScratch) set(r int32, w uint16, next int32) {
	cur := sc.packed[r]
	sc.packed[r] = w
	if (cur|w)&idxMask == idxEscape {
		sc.far.set(sc.order[r], next, w&idxMask == idxEscape)
	}
}

// oldNext returns the next hop of old's word w, which the AS v held.
func (sc *repairScratch) oldNext(v int32, w uint16) int32 {
	c := wordClass(w)
	if i := w & idxMask; i != idxEscape {
		return sc.g.Related(int(v), relOf(c))[i]
	}
	return sc.oldFar.next(v)
}

// addSubtree puts root and every AS whose customer or peer route runs
// through it in the region. Only an AS with a customer route announces it
// to providers and peers, so only its providers and peers can be its
// children there; the customers that take a provider route from a region
// AS are the sweep's to reach. A stub is nobody's parent and derives its
// own route, so a stub root leaves the region empty and no stub joins it.
// The walk reads the intact graph: old's next hops never cross a link that
// was down, and the one that just went down is its endpoint's next hop,
// not its child.
func (sc *repairScratch) addSubtree(root int32) {
	if !sc.stored(root) {
		return
	}
	sc.region = append(sc.region, root)
	for i := 0; i < len(sc.region); i++ {
		v := sc.region[i]
		if w := sc.old[sc.rank[v]]; wordClass(w) <= ClassCustomer {
			h := int(w>>hopsShift) + 1
			sc.addChildren(v, sc.g.Providers(int(v)), routeWord(h, ClassCustomer, 0))
			sc.addChildren(v, sc.g.Peers(int(v)), routeWord(h, ClassPeer, 0))
		}
	}
}

// addChildren adds the ASes of row with stored words whose next hop is v:
// those whose old word is child but for its index, which decodes to v.
// Each AS has one next hop, so none is added twice.
func (sc *repairScratch) addChildren(v int32, row []int32, child uint16) {
	for _, u := range row {
		if r := sc.rank[u]; int(r) < len(sc.old) && sc.old[r]&^idxMask == child && sc.oldNext(u, sc.old[r]) == v {
			sc.region = append(sc.region, u)
		}
	}
}

// length returns the hops of the route w, and more than any route has when
// w is unreachable.
func length(w uint16) int {
	if w == unreachableEntry {
		return math.MaxInt
	}
	return int(w >> hopsShift)
}

// live reports whether an entry in the queue's bucket h still stands for an
// AS whose word is now w: it holds a route of h hops, of class most or
// better. An AS is queued again whenever its word improves, and its
// earlier entries go stale.
func live(w uint16, h int, most Class) bool {
	return int(w>>hopsShift) == h && wordClass(w) <= most
}

// improves reports whether the route cand beats the route cur: by class,
// and within a class by the word, which orders by length and then by the
// next hop's index. Two words that carry idxEscape and are otherwise equal
// tie here (see farTie).
func improves(cur, cand uint16) bool {
	cc, kc := cur>>classShift&classMask, cand>>classShift&classMask
	return kc < cc || kc == cc && cand < cur
}

// farTie reports whether the routes cand and cur tie on an escaped index,
// so that their next hops' ASes decide.
func farTie(cur, cand uint16) bool { return cand == cur && cand&idxMask == idxEscape }

// take gives the AS v, ranked r, the route cand, whose next hop is u, when
// it is the better one, and queues v to announce it in turn.
func (sc *repairScratch) take(r, v int32, cand uint16, u int32) {
	cur := sc.packed[r]
	if !improves(cur, cand) && !(farTie(cur, cand) && u < sc.far.next(v)) {
		return
	}
	if cand>>hopsShift == hopsSentinel {
		sc.bail = true
		return
	}
	sc.set(r, cand, u)
	sc.push(v, int(cand>>hopsShift))
}

// offer presents AS v with the h-hop route of class c its neighbour u
// announces, and when it is the better one v takes it (see take). u's
// index in v's row is looked up only when the route's class and length
// leave it to decide. A stub takes its route when read.
func (sc *repairScratch) offer(v int32, h int, c Class, u int32) {
	r := sc.rank[v]
	if int(r) >= len(sc.packed) {
		return
	}
	cand := routeWord(h, c, 0) // as good as the route from any index
	if cur := sc.packed[r]; !improves(cur, cand) && cur != cand {
		return
	}
	i, _ := slices.BinarySearch(sc.g.Related(int(v), relOf(c)), u)
	sc.take(r, v, routeWord(h, c, i), u)
}

// exportedAs returns the worst class of route an AS announces to a
// neighbour for whom it would be a route of class c: customers hear
// everything, peers and providers only customer routes and the origin's own.
func exportedAs(c Class) Class {
	if c == ClassProvider {
		return ClassProvider
	}
	return ClassCustomer
}

// pull has every AS in the region that holds no route yet, and had none of
// a better class than rel gives before the event (the class floor), take
// the best route its neighbours of relationship rel export to it. The
// restored link's announcements of that class go out with them, floor or
// not: their senders, unlike every other AS that has something new to say,
// may have been left as they were.
func (sc *repairScratch) pull(rel topo.Rel) {
	c := classOf(rel)
	most := exportedAs(c)
	for _, v := range sc.region {
		r := sc.rank[v]
		if sc.packed[r] != unreachableEntry || wordClass(sc.old[r]) > c {
			continue
		}
		lost := sc.cut.lostBy(v)
		for i, u := range sc.g.Related(int(v), rel) {
			if w := announced(sc.packed, sc.rank, sc.dst, u); wordClass(w) <= most && !slices.Contains(lost, u) {
				sc.take(r, v, routeWord(int(w>>hopsShift)+1, c, i), u)
			}
		}
	}
	for _, x := range sc.cross {
		if w := announced(sc.packed, sc.rank, sc.dst, x.from); x.class == c && wordClass(w) <= most {
			sc.offer(x.to, int(w>>hopsShift)+1, c, x.from)
		}
	}
}

// spread walks the queue, shortest routes first, and has every AS on it
// offer its route to its neighbours of relationship rel over links that are
// up, if it is one it exports to them. Takers join the queue further on.
func (sc *repairScratch) spread(rel topo.Rel) {
	c := classOf(rel.Invert()) // what the route is to those who take it
	most := exportedAs(c)
	for h := 0; h < len(sc.buckets); h++ {
		for _, v := range sc.buckets[h] {
			if !live(sc.packed[sc.rank[v]], h, most) {
				continue
			}
			lost := sc.cut.lostBy(v)
			for _, u := range sc.g.Related(int(v), rel) {
				if !slices.Contains(lost, u) {
					sc.offer(u, h+1, c, v)
				}
			}
		}
	}
}

// mark sets the bit of rank r in the bitset marks.
func mark(marks []uint64, r int32) { marks[r>>6] |= 1 << (r & 63) }

// markChanged hands phases 1 and 2's changes to the sweep: every AS whose
// word now differs from old's, and, as full, the region ASes left without
// a route and the endpoint a restored provider link announces to.
func (sc *repairScratch) markChanged() {
	for _, v := range sc.region {
		r := sc.rank[v]
		switch sc.packed[r] {
		case unreachableEntry:
			mark(sc.full, r)
			mark(sc.visit, r)
		case sc.old[r]:
		default:
			mark(sc.visit, r)
		}
	}
	for _, bucket := range sc.buckets {
		for _, v := range bucket {
			if r := sc.rank[v]; sc.packed[r] != sc.old[r] {
				mark(sc.visit, r)
			}
		}
	}
	for _, x := range sc.cross {
		if x.class == ClassProvider {
			r := sc.rank[x.to]
			mark(sc.full, r)
			mark(sc.visit, r)
		}
	}
}

// sweep is phase 3: it visits the marked ASes in the graph's provider-first
// order, every provider settled before its customers, and clears the marks
// as it goes. A full AS without a customer or peer route takes the least
// (hops(p)+1, p) over its providers p, exactly as Compute's phase 3 does.
// Then what the AS offers its customers is compared with what it offered
// before the event, by length alone, since a customer ranks provider routes
// by length and next hop and the next hop is the AS itself:
//
//   - shorter (or newly reachable): the route is offered to every customer,
//     and those it leaves shorter than before are marked;
//   - longer (or gone): the customers whose next hop is the AS are marked
//     full, since their word is no longer on offer;
//   - the same: the wave stops here.
//
// The customers come as ranks, from CustomerRanks or an endpoint's cut
// row, which leave out the stubs: they read what the AS offers when their
// word is read. An unmarked AS keeps its word: its next hop offers what it
// did, and any provider that now offers better has offered it. What a full
// AS took from an offer before its visit is overwritten there.
func (sc *repairScratch) sweep() {
	order := sc.g.ProviderOrder()
	words := (len(sc.packed) + 63) / 64
	for i, visit := range sc.visit[:words] {
		for ; visit != 0; visit = sc.visit[i] {
			bit := bits.TrailingZeros64(visit)
			sc.visit[i] &^= 1 << bit
			full := sc.full[i]&(1<<bit) != 0
			sc.full[i] &^= 1 << bit
			r := int32(i<<6 | bit)
			sc.settle(r, order[r], full)
		}
	}
}

// settle is the sweep's visit to v, which ranks r; see sweep.
func (sc *repairScratch) settle(r, v int32, full bool) {
	sc.visits++
	w := sc.packed[r]
	if full && wordClass(w) >= ClassProvider {
		w = sc.providerRoute(r, v)
	}
	customers, slots := sc.g.CustomerRanks(int(r)), sc.g.CustomerSlots(int(r))
	if i := sc.cut.of(v); i >= 0 {
		customers, slots = sc.cut.ranks[i], sc.cut.slots[i]
	}
	if len(customers) == 0 {
		return
	}
	h, was := length(w), length(sc.old[r])
	switch {
	case h < was:
		if h+1 >= hopsSentinel {
			sc.bail = true
			return
		}
		cand := routeWord(h+1, ClassProvider, 0)
		for k, rc := range customers {
			c := cand | uint16(min(slots[k], idxEscape))
			if cur := sc.packed[rc]; improves(cur, c) || farTie(cur, c) && v < sc.far.next(sc.order[rc]) {
				sc.packed[rc] = c // set, written out for this hot loop
				if (cur|c)&idxMask == idxEscape {
					sc.far.set(sc.order[rc], v, c&idxMask == idxEscape)
				}
				if h+1 < length(sc.old[rc]) {
					mark(sc.visit, rc)
				}
			}
		}
	case h > was:
		// A customer whose next hop is v holds the route it took from v
		// before the event: was+1 hops, from v's slot in its row.
		via := routeWord(was+1, ClassProvider, 0)
		for k, rc := range customers {
			if w := via | uint16(min(slots[k], idxEscape)); sc.packed[rc] == w {
				if w&idxMask == idxEscape && sc.far.next(sc.order[rc]) != v {
					continue
				}
				mark(sc.full, rc)
				mark(sc.visit, rc)
			}
		}
	}
}

// providerRoute gives v, which ranks r, the best route its providers over
// links that are up offer it, or unreachableEntry when none has a route,
// and returns it. No word here carries the hops sentinel: old has no
// overflow entries and repair writes none.
func (sc *repairScratch) providerRoute(r, v int32) uint16 {
	row := sc.g.RankedProviders(int(r))
	lost := sc.cut.lostBy(v)
	best := uint64(math.MaxUint64)
	for j, p := range row {
		if w := sc.packed[p.Rank]; w != unreachableEntry && !slices.Contains(lost, p.AS) {
			best = min(best, offerKey(w, j))
		}
	}
	if best == math.MaxUint64 {
		sc.set(r, unreachableEntry, -1)
		return unreachableEntry
	}
	h, j := int(best>>32)+1, int(uint32(best))
	if h >= hopsSentinel {
		sc.bail = true
		return unreachableEntry
	}
	w := routeWord(h, ClassProvider, j)
	if j < idxEscape && sc.packed[r]&idxMask != idxEscape {
		sc.packed[r] = w // set, for the common case
	} else {
		sc.set(r, w, row[j].AS)
	}
	return w
}

// cutStubs returns the side table of d, the repaired table: each stub with
// a failed link whose route over the links it has left differs from what
// its links in g derive, with that route, sorted by AS. A stub with no
// failed link derives its route from g as it is, and one whose failed
// links offered nothing better than its route derives it too.
func (sc *repairScratch) cutStubs(d *Dest) []stubWord {
	var out []stubWord
	for i, v := range sc.cut.ases {
		if sc.stored(v) || v == d.dst {
			continue
		}
		w, h, next := d.deriveStub(v, sc.cut.lost[i])
		if h >= hopsSentinel {
			sc.bail = true
			return nil
		}
		if intact, _, via := d.deriveStub(v, nil); w != intact || next != via {
			out = append(out, stubWord{as: v, next: next, w: w})
		}
	}
	slices.SortFunc(out, func(a, b stubWord) int { return cmp.Compare(a.as, b.as) })
	return out
}
