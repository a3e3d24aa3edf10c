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
// of a failed link, its Customers, Peers and Providers rows (indexed by
// topo.Rel) and its CustomerRanks row (at rankRow) without the neighbours
// it has lost. Every other AS reads its rows off the intact graph, so
// repair never needs the cut graph built. A Table keeps one and refills it
// per event.
type cutRows struct {
	ends []uint64 // bitset over ASes: set for the ASes that have filtered rows
	at   map[int32]int32
	ases []int32 // the ASes that have filtered rows, rows[i] being ases[i]'s
	rows [][4][]int32
	far  [][]int32 // far[i]: the neighbours ases[i] lost, while reset runs
}

// rankRow indexes an endpoint's filtered CustomerRanks among its cut rows;
// the other three are indexed by topo.Rel. A stub's is empty.
const rankRow = 3

// reset refills c for the graph g without the links in failed. Each
// endpoint's rows are filtered by a scan of the far ends it lost, a list
// of one or a few, so no neighbour costs a lookup in failed.
func (c *cutRows) reset(g *topo.Graph, failed map[topo.LinkRef]bool) {
	if words := (g.N() + 63) / 64; len(c.ends) != words {
		c.ends, c.at = make([]uint64, words), make(map[int32]int32)
	}
	for v := range c.at {
		c.ends[v>>6] = 0
	}
	clear(c.at)
	c.ases, c.rows, c.far = c.ases[:0], c.rows[:0], c.far[:0]
	for l := range failed {
		c.lose(int32(l.A), int32(l.B))
		c.lose(int32(l.B), int32(l.A))
	}
	order, rank := g.ProviderOrder(), g.ProviderRanks()
	for i, v := range c.ases {
		far := c.far[i]
		// One array for the four rows, each cut to length so that it
		// cannot grow into the next.
		var ranks []int32
		if r := int(rank[v]); r < g.TailStart() {
			ranks = g.CustomerRanks(r)
		}
		buf := make([]int32, 0, g.Degree(int(v))+len(ranks))
		buf = appendLive(buf, g.Customers(int(v)), far)
		nc := len(buf)
		buf = appendLive(buf, g.Peers(int(v)), far)
		np := len(buf)
		buf = appendLive(buf, g.Providers(int(v)), far)
		nq := len(buf)
		for _, rc := range ranks {
			if !slices.Contains(far, order[rc]) {
				buf = append(buf, rc)
			}
		}
		nr := len(buf)
		rows := [4][]int32{
			topo.Customer: buf[:nc:nc], topo.Peer: buf[nc:np:np], topo.Provider: buf[np:nq:nq],
			rankRow: buf[nq:nr:nr],
		}
		c.ends[v>>6] |= 1 << (v & 63)
		c.rows = append(c.rows, rows)
	}
}

// lose notes that v lost its link to u, making v an endpoint of c.
func (c *cutRows) lose(v, u int32) {
	i, ok := c.at[v]
	if !ok {
		i = int32(len(c.ases))
		c.at[v], c.ases = i, append(c.ases, v)
		if len(c.far) < cap(c.far) {
			c.far = c.far[:i+1]
			c.far[i] = c.far[i][:0] // an earlier event's list, reused
		} else {
			c.far = append(c.far, nil)
		}
	}
	c.far[i] = append(c.far[i], u)
}

// appendLive appends to buf the neighbours in row that are not in far.
func appendLive(buf, row, far []int32) []int32 {
	for _, u := range row {
		if !slices.Contains(far, u) {
			buf = append(buf, u)
		}
	}
	return buf
}

// of returns v's filtered rows, or nil when v has lost no link and its rows
// are the graph's.
func (c *cutRows) of(v int32) *[4][]int32 {
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
type repairScratch struct {
	computeScratch

	// The repair in progress; nil between repairs.
	g      *topo.Graph
	cut    *cutRows
	dst    int32
	rank   []int32  // g.ProviderRanks()
	old    []uint32 // the stored words before the event, read only
	packed []uint32 // the result: old with what the event changed rewritten
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
// the event changed, and derives its stubs' words from g.
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
	if words := (len(old.packed) + 63) / 64; len(sc.visit) < words {
		sc.visit, sc.full = make([]uint64, words), make([]uint64, words)
	}
	sc.g, sc.cut, sc.dst, sc.rank, sc.old, sc.packed = g, cut, old.dst, rank, old.packed, nil
	sc.cross, sc.region = sc.cross[:0], sc.region[:0]
	sc.bail, sc.visits = false, 0
	defer func() { sc.g, sc.cut, sc.rank, sc.old, sc.packed = nil, nil, nil, nil, nil }()

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
	sc.packed = slices.Clip(slices.Clone(old.packed))
	for _, v := range sc.region {
		sc.packed[rank[v]] = unreachableEntry
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
	if d.stubs = sc.cutStubs(d); sc.bail {
		return nil
	}
	return d
}

// stored reports whether v's word is stored: whether v is no stub.
func (sc *repairScratch) stored(v int32) bool { return int(sc.rank[v]) < len(sc.old) }

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
		if wordClass(sc.old[sc.rank[v]]) <= ClassCustomer {
			sc.addChildren(v, sc.g.Providers(int(v)))
			sc.addChildren(v, sc.g.Peers(int(v)))
		}
	}
}

// addChildren adds the ASes of row with stored words whose next hop is v.
// Each AS has one next hop, so none is added twice.
func (sc *repairScratch) addChildren(v int32, row []int32) {
	for _, u := range row {
		if r := sc.rank[u]; int(r) < len(sc.old) && sc.old[r]&nextMask == uint32(v+1) {
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
// takes it and queues v to announce it in turn. A stub takes its route
// when read.
func (sc *repairScratch) offer(v int32, cand uint32) {
	r := sc.rank[v]
	if int(r) >= len(sc.packed) || !improves(sc.packed[r], cand) {
		return
	}
	if cand >= hopsSentinel<<hopsShift {
		sc.bail = true
		return
	}
	sc.packed[r] = cand
	sc.push(v, int(cand>>hopsShift))
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
		for _, u := range sc.row(v, rel) {
			if w := announced(sc.packed, sc.rank, sc.dst, u); wordClass(w) <= most {
				sc.offer(v, routeWord(int(w>>hopsShift)+1, c, u))
			}
		}
	}
	for _, x := range sc.cross {
		if w := announced(sc.packed, sc.rank, sc.dst, x.from); x.class == c && wordClass(w) <= most {
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
			if !live(sc.packed[sc.rank[v]], h, most) {
				continue
			}
			cand := routeWord(h+1, c, v)
			for _, u := range sc.row(v, rel) {
				sc.offer(u, cand)
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
		w = sc.providerRoute(v)
		sc.packed[r] = w
	}
	customers := sc.g.CustomerRanks(int(r))
	if cut := sc.cut.of(v); cut != nil {
		customers = cut[rankRow]
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
		cand := routeWord(h+1, ClassProvider, v)
		for _, rc := range customers {
			if improves(sc.packed[rc], cand) {
				sc.packed[rc] = cand
				if h+1 < length(sc.old[rc]) {
					mark(sc.visit, rc)
				}
			}
		}
	case h > was:
		for _, rc := range customers {
			if sc.packed[rc]&nextMask == uint32(v+1) {
				mark(sc.full, rc)
				mark(sc.visit, rc)
			}
		}
	}
}

// providerRoute returns the best route v's providers offer it, or
// unreachableEntry when none has a route. No word here carries the hops
// sentinel: old has no overflow entries and repair writes none.
func (sc *repairScratch) providerRoute(v int32) uint32 {
	best := bestProvider(sc.packed, sc.rank, sc.row(v, topo.Provider))
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
		rows := &sc.cut.rows[i]
		w, h := d.deriveStub(rows[topo.Peer], rows[topo.Provider])
		if h >= hopsSentinel {
			sc.bail = true
			return nil
		}
		if intact, _ := d.deriveStub(sc.g.Peers(int(v)), sc.g.Providers(int(v))); w != intact {
			out = append(out, stubWord{as: v, w: w})
		}
	}
	slices.SortFunc(out, func(a, b stubWord) int { return cmp.Compare(a.as, b.as) })
	return out
}
