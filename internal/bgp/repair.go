package bgp

import (
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
// cannot order them — and when the region to rebuild is more than
// 1/repairMaxRegionShare of the graph. At paper scale repair costs what
// Compute does from a quarter of the graph on; the bound sits higher
// because the first fallback of an event also pays for the cut graph
// Compute wants (3.3 MB there), which repair alone never builds.
const repairMaxRegionShare = 2

// crossOffer is a route announcement over the link a LinkUp restored.
type crossOffer struct {
	from, to int32
	class    Class // the route's class at to
}

// repairScratch is what one repair needs beside the result: the bucket
// queue, and the region it rebuilds. Pooled like computeScratch; the
// membership array is grown to the graph at hand and handed back all false.
type repairScratch struct {
	computeScratch

	// The repair in progress; nil between repairs.
	g      *topo.Graph
	cut    *cutRows
	old    []uint32 // the table before the event, read only
	packed []uint32 // the result: old with the region rebuilt
	cross  []crossOffer

	region   []int32 // the ASes whose routes are rebuilt from nothing, each once, parents before children
	transit  []int32 // those of them that have customers, and so may hold a customer route
	inRegion []bool
	grow     []int32 // ASes outside the region the last pass caught taking a better class over a longer path
	bail     bool    // a route reached hopsSentinel hops
	passes   int     // passes the last repair ran; tests read it
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
// which is that assignment for the graph before the event, and rebuilds a
// region from nothing:
//
//   - on LinkDown the subtree, in old's next-hop forest, under the endpoint
//     that routed over the link: the ASes whose path is gone;
//   - on LinkUp nothing at first. The two announcements the link carries
//     are offered to its endpoints, and whatever they improve spreads.
//
// The region's ASes pull offers from all their neighbours, and every AS
// whose word changed pushes its new route on, phase by phase as in Compute
// and shortest first, to ASes in and out of the region alike. Out of the
// region a word changes only for a better one, so what an AS there offers
// its neighbours gets no worse and their old words stay valid — with one
// exception: a better class may come over a longer path (a customer route
// of 9 hops replaces a peer route of 3), and the AS's customers, who were
// using the short route, are then left with words nothing supports. Such
// an AS is noted in grow, its old subtree joins the region, and the pass
// is run again from old. LinkDown has the mirror case, which needs no
// second pass: an AS in the region that falls back from a long customer
// route to a short peer or provider route now offers its customers a
// shorter provider route than before, so phase 3 has to reach customers
// outside the region too.
func (sc *repairScratch) repair(g *topo.Graph, cut *cutRows, old *Dest, a, b int, up bool) *Dest {
	if len(old.overflow) > 0 {
		return nil
	}
	n := g.N()
	if len(sc.inRegion) < n {
		sc.inRegion = make([]bool, n)
	}
	sc.g, sc.cut, sc.old, sc.packed = g, cut, old.packed, nil
	sc.cross, sc.region, sc.transit, sc.grow = sc.cross[:0], sc.region[:0], sc.transit[:0], sc.grow[:0]
	sc.bail, sc.passes = false, 0
	defer func() {
		for _, v := range sc.region {
			sc.inRegion[v] = false
		}
		sc.g, sc.cut, sc.old, sc.packed = nil, nil, nil, nil
	}()

	if up {
		rel, _ := g.Rel(a, b) // b's role as a sees it, and so the class at a of what b announces
		sc.cross = append(sc.cross,
			crossOffer{from: int32(b), to: int32(a), class: classOf(rel)},
			crossOffer{from: int32(a), to: int32(b), class: classOf(rel.Invert())})
	} else if int(old.next32(a)) == b {
		sc.grow = append(sc.grow, int32(a))
	} else if int(old.next32(b)) == a {
		sc.grow = append(sc.grow, int32(b))
	}

	for {
		for _, v := range sc.grow {
			sc.addSubtree(old, v)
		}
		sc.grow = sc.grow[:0]
		if len(sc.region) > n/repairMaxRegionShare {
			return nil
		}
		if sc.packed == nil {
			// make and copy side by side: the compiler then skips zeroing
			// what the copy is about to fill.
			fresh := make([]uint32, n)
			copy(fresh, old.packed)
			sc.packed = fresh
		} else {
			copy(sc.packed, old.packed)
		}
		for _, v := range sc.region {
			sc.packed[v] = unreachableEntry
		}
		sc.passes++
		sc.pass()
		if sc.bail {
			return nil
		}
		if len(sc.grow) == 0 {
			return &Dest{dst: old.dst, packed: sc.packed}
		}
	}
}

// addSubtree adds root and every AS whose route in old runs through it to
// the region. An AS with a peer or provider route announces it to its
// customers only, so only they can be its children. The walk reads the
// intact graph: old's next hops never cross a link that was down, and the
// one that just went down is its endpoint's next hop, not its child.
func (sc *repairScratch) addSubtree(old *Dest, root int32) {
	if sc.inRegion[root] {
		return
	}
	sc.inRegion[root] = true
	start := len(sc.region)
	sc.region = append(sc.region, root)
	for i := start; i < len(sc.region); i++ {
		v := sc.region[i]
		if old.cls(int(v)) <= ClassCustomer {
			sc.addChildren(old, v, sc.g.Providers(int(v)))
			sc.addChildren(old, v, sc.g.Peers(int(v)))
		}
		customers := sc.g.Customers(int(v))
		if len(customers) > 0 {
			sc.transit = append(sc.transit, v)
		}
		sc.addChildren(old, v, customers)
	}
}

func (sc *repairScratch) addChildren(old *Dest, v int32, row []int32) {
	for _, u := range row {
		if old.next32(int(u)) == v && !sc.inRegion[u] {
			sc.inRegion[u] = true
			sc.region = append(sc.region, u)
		}
	}
}

func wordClass(w uint32) Class { return Class(w >> classShift & classMask) }

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
	if was := sc.old[v]; !sc.inRegion[v] && was != unreachableEntry && cand>>hopsShift > was>>hopsShift {
		sc.grow = append(sc.grow, v)
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

// pull has every AS in list that holds no route yet take the best route its
// neighbours of relationship rel export to it. The restored link's
// announcements of that class go out with them: their senders, unlike every
// other AS that has something new to say, may have been left as they were.
func (sc *repairScratch) pull(list []int32, rel topo.Rel) {
	c := classOf(rel)
	most := exportedAs(c)
	for _, v := range list {
		if sc.packed[v] != unreachableEntry {
			continue
		}
		row := sc.g.Related(int(v), rel)
		if r := sc.cut.of(v); r != nil {
			row = r[rel]
		}
		for _, u := range row {
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
			row := sc.g.Related(int(v), rel)
			if r := sc.cut.of(v); r != nil {
				row = r[rel]
			}
			cand := routeWord(h+1, c, v)
			for _, u := range row {
				sc.offer(u, cand)
			}
		}
	}
}

// pass runs the three phases over sc.packed, which holds old's words with
// the region's cleared, and leaves in sc.grow the ASes that make the result
// void (see repair).
func (sc *repairScratch) pass() {
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
	sc.pull(sc.region, topo.Provider)
	sc.spread(topo.Customer)
}
