package bgp

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/topo"
)

// cutRows is the failed-link filter of one link event: for every endpoint
// of a failed link, its Customers, Peers and Providers rows (indexed by
// topo.Rel) without the neighbours it has lost. Every other AS reads its
// rows off the intact graph, so repair never needs the cut graph built. A
// Table keeps one and refills it per event.
type cutRows struct {
	ends []uint64 // bitset over ASes: set for the ASes that have filtered rows
	at   map[int32]int32
	rows [][3][]int32
}

// reset refills c for the graph g without the links in failed.
func (c *cutRows) reset(g *topo.Graph, failed map[topo.LinkRef]bool) {
	if words := (g.N() + 63) / 64; len(c.ends) != words {
		c.ends, c.at = make([]uint64, words), make(map[int32]int32)
	}
	for v := range c.at {
		c.ends[v>>6] = 0
	}
	clear(c.at)
	c.rows = c.rows[:0]
	for l := range failed {
		for _, v := range [2]int{l.A, l.B} {
			if _, done := c.at[int32(v)]; done {
				continue
			}
			// One array for the three rows, each cut to length so that it
			// cannot grow into the next.
			buf := make([]int32, 0, g.Degree(v))
			buf = appendLive(buf, g.Customers(v), v, failed)
			nc := len(buf)
			buf = appendLive(buf, g.Peers(v), v, failed)
			np := len(buf)
			buf = appendLive(buf, g.Providers(v), v, failed)
			rows := [3][]int32{topo.Customer: buf[:nc:nc], topo.Peer: buf[nc:np:np], topo.Provider: buf[np:]}
			c.ends[v>>6] |= 1 << (v & 63)
			c.at[int32(v)] = int32(len(c.rows))
			c.rows = append(c.rows, rows)
		}
	}
}

// appendLive appends to buf the neighbours in row that v has not lost.
func appendLive(buf, row []int32, v int, failed map[topo.LinkRef]bool) []int32 {
	for _, u := range row {
		if !failed[normLinkRef(v, int(u))] {
			buf = append(buf, u)
		}
	}
	return buf
}

// of returns v's filtered rows, or nil when v has lost no link and its rows
// are the graph's.
func (c *cutRows) of(v int32) *[3][]int32 {
	if c.ends[v>>6]&(1<<(v&63)) == 0 {
		return nil
	}
	return &c.rows[c.at[v]]
}

// Repair gives up, and the caller runs Compute on the cut graph instead,
// whenever a route of hopsSentinel hops or more is involved — those do not
// carry their length in the word, and the class-then-word comparison below
// cannot order them — and when the region a LinkDown rebuilds from nothing
// is more than 1/repairMaxRegionShare of the graph. The region holds only
// customer and peer routes, so it reaches that size only where most of the
// graph climbs to the destination through one AS (TestRecomputeChunked's
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
type repairScratch struct {
	computeScratch

	// The repair in progress; nil between repairs.
	g      *topo.Graph
	cut    *cutRows
	old    []uint32 // the table before the event, read only
	packed []uint32 // the result: old with what the event changed rewritten
	rank   []int32  // g.ProviderRanks()
	cross  []crossOffer

	region  []int32 // LinkDown: the ASes whose routes are rebuilt from nothing, each once, parents before children
	transit []int32 // those of them that have customers, and so may hold a customer route

	// The phase-3 sweep's marks, bitsets over positions in
	// g.ProviderOrder: visit for the ASes whose word may have changed, and
	// full for those of them that must take their provider route afresh.
	visit, full []uint64
	bail        bool // a route reached hopsSentinel hops
	visits      int  // ASes the last repair's sweep visited; tests and the benchmark read it
}

var repairPool = sync.Pool{New: func() any { return new(repairScratch) }}

// repair returns old's destination's table after the link (a, b) went down
// (up false) or came back (up true): the result of Compute on g without
// the links cut filters out, word for word, or nil when the caller has to
// run that Compute itself (see repairMaxRegionShare). old is the table
// from just before the event and is only read; the result is a fresh
// array, whatever the event changed.
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
//     its old one. No other AS's customer or peer route can change.
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
	if len(old.overflow) > 0 {
		return nil
	}
	n := g.N()
	if words := (n + 63) / 64; len(sc.visit) < words {
		sc.visit, sc.full = make([]uint64, words), make([]uint64, words)
	}
	sc.g, sc.cut, sc.old, sc.packed, sc.rank = g, cut, old.packed, nil, g.ProviderRanks()
	sc.cross, sc.region, sc.transit = sc.cross[:0], sc.region[:0], sc.transit[:0]
	sc.bail, sc.visits = false, 0
	defer func() { sc.g, sc.cut, sc.old, sc.packed, sc.rank = nil, nil, nil, nil, nil }()

	if up {
		rel, _ := g.Rel(a, b) // b's role as a sees it, and so the class at a of what b announces
		sc.cross = append(sc.cross,
			crossOffer{from: int32(b), to: int32(a), class: classOf(rel)},
			crossOffer{from: int32(a), to: int32(b), class: classOf(rel.Invert())})
	} else if int(old.next32(a)) == b {
		sc.addSubtree(old, int32(a))
	} else if int(old.next32(b)) == a {
		sc.addSubtree(old, int32(b))
	}
	if len(sc.region) > n/repairMaxRegionShare {
		return nil
	}
	// make and copy side by side into a local: the compiler then skips
	// zeroing what the copy is about to fill.
	fresh := make([]uint32, n)
	copy(fresh, old.packed)
	sc.packed = fresh
	for _, v := range sc.region {
		sc.packed[v] = unreachableEntry
	}
	for h := range sc.buckets {
		sc.buckets[h] = sc.buckets[h][:0]
	}
	// Phase 1: customer routes climb provider links.
	sc.pull(sc.transit, topo.Customer)
	sc.spread(topo.Provider)
	// Phase 2: customer routes cross one peer link. The takers queue up
	// among the customer routes and are passed over by their class.
	sc.pull(sc.region, topo.Peer)
	sc.spread(topo.Peer)
	// Phase 3: every route descends customer links.
	sc.markChanged()
	sc.sweep()
	if sc.bail {
		return nil
	}
	return &Dest{dst: old.dst, packed: sc.packed}
}

// addSubtree puts root and every AS whose customer or peer route runs
// through it in the region. Only an AS with a customer route announces it
// to providers and peers, so only its providers and peers can be its
// children there; the customers that take a provider route from a region
// AS are the sweep's to reach. The walk reads the intact graph: old's next
// hops never cross a link that was down, and the one that just went down
// is its endpoint's next hop, not its child.
func (sc *repairScratch) addSubtree(old *Dest, root int32) {
	sc.region = append(sc.region, root)
	for i := 0; i < len(sc.region); i++ {
		v := sc.region[i]
		if sc.g.CustomerCount(int(v)) > 0 {
			sc.transit = append(sc.transit, v)
		}
		if old.cls(int(v)) <= ClassCustomer {
			sc.addChildren(old, v, sc.g.Providers(int(v)))
			sc.addChildren(old, v, sc.g.Peers(int(v)))
		}
	}
}

// addChildren adds the ASes of row whose next hop is v. Each AS has one
// next hop, so none is added twice.
func (sc *repairScratch) addChildren(old *Dest, v int32, row []int32) {
	for _, u := range row {
		if old.next32(int(u)) == v {
			sc.region = append(sc.region, u)
		}
	}
}

// row returns v's neighbours of relationship rel over links that are up.
func (sc *repairScratch) row(v int32, rel topo.Rel) []int32 {
	if r := sc.cut.of(v); r != nil {
		return r[rel]
	}
	return sc.g.Related(int(v), rel)
}

func wordClass(w uint32) Class { return Class(w >> classShift & classMask) }

// length returns the hops of the route w, and more than any route has when
// w is unreachable.
func length(w uint32) int {
	if w == unreachableEntry {
		return math.MaxInt
	}
	return int(w >> hopsShift)
}

// live reports whether an entry in the queue's bucket h still stands for an
// AS whose word is now w: it holds a route of h hops, of class most or
// better. An AS is queued again whenever its word improves, and its
// earlier entries go stale.
func live(w uint32, h int, most Class) bool {
	return int(w>>hopsShift) == h && wordClass(w) <= most
}

// improves reports whether the route cand beats the route cur: by class,
// and within a class by the word, which orders by length and then next hop.
func improves(cur, cand uint32) bool {
	cc, kc := cur>>classShift&classMask, cand>>classShift&classMask
	return kc < cc || kc == cc && cand < cur
}

// offer presents AS v with the route cand, and when it is the better one
// takes it and queues v to announce it in turn. An AS without customers
// has nobody to announce to: a customer route, the only kind that goes to
// peers and providers, it cannot hold.
func (sc *repairScratch) offer(v int32, cand uint32) {
	if !improves(sc.packed[v], cand) {
		return
	}
	if cand >= hopsSentinel<<hopsShift {
		sc.bail = true
		return
	}
	sc.packed[v] = cand
	if sc.g.CustomerCount(int(v)) > 0 {
		sc.push(v, int(cand>>hopsShift))
	}
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

// pull has every AS in list that holds no route yet, and had none of a
// better class than rel gives before the event (the class floor), take the
// best route its neighbours of relationship rel export to it. The restored
// link's announcements of that class go out with them, floor or not: their
// senders, unlike every other AS that has something new to say, may have
// been left as they were.
func (sc *repairScratch) pull(list []int32, rel topo.Rel) {
	c := classOf(rel)
	most := exportedAs(c)
	for _, v := range list {
		if sc.packed[v] != unreachableEntry || wordClass(sc.old[v]) > c {
			continue
		}
		for _, u := range sc.row(v, rel) {
			if w := sc.packed[u]; wordClass(w) <= most {
				sc.offer(v, routeWord(int(w>>hopsShift)+1, c, u))
			}
		}
	}
	for _, x := range sc.cross {
		if w := sc.packed[x.from]; x.class == c && wordClass(w) <= most {
			sc.offer(x.to, routeWord(int(w>>hopsShift)+1, c, x.from))
		}
	}
}

// spread walks the queue, shortest routes first, and has every AS on it
// offer its route to its neighbours of relationship rel, if it is one it
// exports to them. Takers join the queue further on.
func (sc *repairScratch) spread(rel topo.Rel) {
	c := classOf(rel.Invert()) // what the route is to those who take it
	most := exportedAs(c)
	for h := 0; h < len(sc.buckets); h++ {
		for _, v := range sc.buckets[h] {
			if !live(sc.packed[v], h, most) {
				continue
			}
			cand := routeWord(h+1, c, v)
			for _, u := range sc.row(v, rel) {
				sc.offer(u, cand)
			}
		}
	}
}

// mark sets v's bit in the bitset marks, which is indexed by rank.
func (sc *repairScratch) mark(marks []uint64, v int32) {
	r := sc.rank[v]
	marks[r>>6] |= 1 << (r & 63)
}

// markChanged hands phases 1 and 2's changes to the sweep: every AS whose
// word now differs from old's, and, as full, the region ASes left without
// a route and the endpoint a restored provider link announces to. An AS
// without customers that took a new customer or peer route has nobody to
// tell and is not queued; a region AS is checked whatever it has.
func (sc *repairScratch) markChanged() {
	for _, v := range sc.region {
		switch sc.packed[v] {
		case unreachableEntry:
			sc.mark(sc.full, v)
			sc.mark(sc.visit, v)
		case sc.old[v]:
		default:
			sc.mark(sc.visit, v)
		}
	}
	for _, bucket := range sc.buckets {
		for _, v := range bucket {
			if sc.packed[v] != sc.old[v] {
				sc.mark(sc.visit, v)
			}
		}
	}
	for _, x := range sc.cross {
		if x.class == ClassProvider {
			sc.mark(sc.full, x.to)
			sc.mark(sc.visit, x.to)
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
// An unmarked AS keeps its word: its next hop offers what it did, and any
// provider that now offers better has offered it. What a full AS took from
// an offer before its visit is overwritten there.
func (sc *repairScratch) sweep() {
	order := sc.g.ProviderOrder()
	words := (len(order) + 63) / 64
	for i, visit := range sc.visit[:words] {
		for ; visit != 0; visit = sc.visit[i] {
			bit := bits.TrailingZeros64(visit)
			sc.visit[i] &^= 1 << bit
			full := sc.full[i]&(1<<bit) != 0
			sc.full[i] &^= 1 << bit
			sc.settle(order[i<<6|bit], full)
		}
	}
}

// settle is the sweep's visit to v; see sweep.
func (sc *repairScratch) settle(v int32, full bool) {
	sc.visits++
	w := sc.packed[v]
	if full && wordClass(w) >= ClassProvider {
		w = sc.providerRoute(v)
		sc.packed[v] = w
	}
	customers := sc.row(v, topo.Customer)
	if len(customers) == 0 {
		return
	}
	h, was := length(w), length(sc.old[v])
	switch {
	case h < was:
		if h+1 >= hopsSentinel {
			sc.bail = true
			return
		}
		cand := routeWord(h+1, ClassProvider, v)
		for _, c := range customers {
			if improves(sc.packed[c], cand) {
				sc.packed[c] = cand
				if h+1 < length(sc.old[c]) && sc.g.CustomerCount(int(c)) > 0 {
					sc.mark(sc.visit, c)
				}
			}
		}
	case h > was:
		for _, c := range customers {
			if sc.packed[c]&nextMask == uint32(v+1) {
				sc.mark(sc.full, c)
				sc.mark(sc.visit, c)
			}
		}
	}
}

// providerRoute returns the best route v's providers offer it, or
// unreachableEntry when none has a route. No word here carries the hops
// sentinel: old has no overflow entries and repair writes none.
func (sc *repairScratch) providerRoute(v int32) uint32 {
	best := bestProvider(sc.packed, sc.row(v, topo.Provider))
	if best == math.MaxUint32 {
		return unreachableEntry
	}
	h := int(best>>hopsShift) + 1
	if h >= hopsSentinel {
		sc.bail = true
		return unreachableEntry
	}
	return routeWord(h, ClassProvider, int32(best&nextMask))
}
