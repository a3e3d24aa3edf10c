// Package bgp computes interdomain routes over an AS-level topology under
// the standard Gao–Rexford model the paper assumes (Section IV):
//
//   - Export: routes through peers and providers are exported only to
//     customers; customer routes (and one's own prefixes) are exported to
//     everyone ("valley-free" export).
//   - Selection: customer routes are preferred over peer routes, which are
//     preferred over provider routes; ties are broken first by AS-path
//     length, then by the lowest next-hop AS identifier.
//
// Besides the single best route per AS (what BGP's data plane uses), the
// package exposes the multi-path Adj-RIB-In that MIFO mines: for a given
// destination, every route a neighbor is willing to export. This is exactly
// the paper's "multiple paths with zero overhead" observation — path
// diversity equals the number of exporting neighbors.
package bgp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/parallel"
	"repro/internal/topo"
)

// Class ranks a route by the relationship through which it was learned.
// Lower is more preferred.
type Class int8

const (
	// ClassOrigin marks the destination AS itself.
	ClassOrigin Class = iota
	// ClassCustomer marks a route learned from a customer.
	ClassCustomer
	// ClassPeer marks a route learned from a peer.
	ClassPeer
	// ClassProvider marks a route learned from a provider.
	ClassProvider
	// ClassUnreachable marks the absence of any route.
	ClassUnreachable
)

// String returns a short name for the class.
func (c Class) String() string {
	switch c {
	case ClassOrigin:
		return "origin"
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	case ClassUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// classOf translates the relationship of the announcing neighbor (as seen
// from the receiving AS) into the receiver's route class.
func classOf(rel topo.Rel) Class {
	switch rel {
	case topo.Customer:
		return ClassCustomer
	case topo.Peer:
		return ClassPeer
	default:
		return ClassProvider
	}
}

// Compact route-entry layout. Each AS's best route towards one destination
// packs into a single uint16:
//
//	bits  0–6   the next hop's index in the AS's row for the route's class
//	            (Customers, Peers or Providers of Dest.g); idxEscape for an
//	            index of 127 or more, whose AS lives in the sorted far side
//	            table; 0 when there is no next hop
//	bits  7–9   route class (ClassOrigin … ClassUnreachable)
//	bits 10–15  AS-path length 0–62; 63 is an overflow sentinel and the
//	            true length lives in the sorted overflow side table
//
// The rows ascend by AS, so within one class and length a lower index is a
// lower next-hop AS, and comparing words keeps the lowest-next-hop
// tie-break; two escaped words compare by the ASes in far.
//
// A Dest stores the word of each AS with customers only — the body of the
// graph's ProviderOrder, 5,772 of the 44,340 ASes at paper scale — so a
// destination is 11.5 KB and a full 44,340-destination table ~488 MiB (a
// word for all 44,340 ASes would be 89 KB and ~3.7 GiB). Each stub's word
// is derived when read (see stubRoute). Unreachable entries are suppressed
// to the single canonical word ClassUnreachable<<classShift, so two tables
// on one graph agree word for word whenever they agree on reachability,
// class, hops, and next hop.
const (
	idxBits      = 7
	idxMask      = 1<<idxBits - 1
	idxEscape    = idxMask // index field value meaning "look in far"
	classShift   = idxBits
	classMask    = 0x7
	hopsShift    = classShift + 3
	hopsSentinel = 63 // hops field value meaning "look in overflow"

	unreachableEntry = uint16(ClassUnreachable) << classShift
	originEntry      = uint16(ClassOrigin) << classShift // 0 hops, no next hop
)

// hopOverflow records the true path length of an AS whose hops exceed the
// 6-bit inline field. Internet AS paths are short (the paper's dataset
// averages ~4 hops), so this table is almost always empty.
type hopOverflow struct {
	as   int32
	hops int16
}

// farHop is the next hop of a stored AS whose word carries idxEscape: one
// that sits at index 127 or later in its row. Internet rows that long are
// the customers and peers of a few hubs, so this table is almost always
// empty.
type farHop struct {
	as, next int32
}

// farTable is a far side table, sorted by AS.
type farTable []farHop

// find returns where v's entry is, or would go, and whether f has one.
func (f farTable) find(v int32) (int, bool) {
	return slices.BinarySearchFunc(f, v, func(h farHop, v int32) int { return cmp.Compare(h.as, v) })
}

// next returns the next hop f records for v, which it holds.
func (f farTable) next(v int32) int32 {
	i, _ := f.find(v)
	return f[i].next
}

// set gives v the entry next when escaped, and none when not.
func (f *farTable) set(v, next int32, escaped bool) {
	i, ok := f.find(v)
	switch {
	case escaped && ok:
		(*f)[i].next = next
	case escaped:
		*f = slices.Insert(*f, i, farHop{as: v, next: next})
	case ok:
		*f = slices.Delete(*f, i, i+1)
	}
}

// stubWord is the route of a stub with a failed link, held by a Dest a
// Table repaired when it differs from what the stub's links in the intact
// graph derive: its word, indexed into those links' rows, and its next hop.
// Repair writes no route of hopsSentinel hops or more, so the word carries
// its length.
type stubWord struct {
	as, next int32
	w        uint16
}

// Dest holds, for one destination AS, every AS's best route: its class,
// AS-path length (hops to the destination) and next-hop AS. It stores the
// packed word (see the layout above) of each AS ranked before
// g.TailStart() in g's ProviderOrder, indexed by that rank; the array may
// be a window of one block ComputeAll made for a whole build. The words'
// indices point into g's rows: a table Compute made on a cut graph indexes
// the cut graph's, and a table a Table repaired keeps the intact graph's.
// The other ASes are stubs, and under valley-free export a stub announces
// no route but its own, so no stored word depends on a stub's unless the
// stub is the destination: a stub's word is derived from its neighbours'
// when read, from g's links, or from the side table stubs for a stub a
// repair found cut off from some of them.
type Dest struct {
	dst      int32
	g        *topo.Graph   // the graph the words index and the stubs' words derive from
	rank     []int32       // g.ProviderRanks()
	packed   []uint16      // by rank, the ASes before g.TailStart()
	overflow []hopOverflow // sorted by as; rarely non-empty
	far      farTable      // rarely non-empty; in farIn when it fits
	stubs    []stubWord    // sorted by as; nil unless a failed link touches a stub
	farIn    [2]farHop     // holds far's entries when there are two or fewer, as for 99.7 % of paper-scale tables
}

// keepFar makes a copy of f d's far side table, in d's own farIn when it
// fits, so that most tables with one take no allocation for it.
func (d *Dest) keepFar(f farTable) {
	if len(f) > 0 {
		d.far = append(d.farIn[:0], f...)
	}
}

// Dst returns the destination AS index.
func (d *Dest) Dst() int { return int(d.dst) }

// stored reports whether the AS ranked r has its word stored.
func (d *Dest) stored(r int32) bool { return uint(r) < uint(len(d.packed)) }

// word returns v's packed word, stored or derived.
func (d *Dest) word(v int) uint16 {
	if r := d.rank[v]; d.stored(r) {
		return d.packed[r]
	}
	w, _, _ := d.stubRoute(int32(v))
	return w
}

// cls is the internal class accessor.
func (d *Dest) cls(v int) Class { return wordClass(d.word(v)) }

// next32 is the internal next-hop accessor (-1 when none).
func (d *Dest) next32(v int) int32 {
	_, _, next := d.route(v)
	return next
}

// route returns v's word, its route's length and its next hop (both -1
// when it has none), deriving a stub's once.
func (d *Dest) route(v int) (uint16, int, int32) {
	r := d.rank[v]
	if !d.stored(r) {
		return d.stubRoute(int32(v))
	}
	if w := d.packed[r]; w != unreachableEntry {
		return w, int(d.wordHops(v, w)), d.nextOf(int32(v), w)
	}
	return unreachableEntry, -1, -1
}

// hops16 is the internal path-length accessor; only valid for reachable v.
func (d *Dest) hops16(v int) int16 {
	if r := d.rank[v]; d.stored(r) {
		return d.wordHops(v, d.packed[r])
	}
	_, h, _ := d.stubRoute(int32(v))
	return int16(h)
}

// wordHops returns the length of the route w, which v holds.
func (d *Dest) wordHops(v int, w uint16) int16 {
	if h := int16(w >> hopsShift); h != hopsSentinel {
		return h
	}
	return d.overflowHops(v)
}

func (d *Dest) overflowHops(v int) int16 {
	i := sort.Search(len(d.overflow), func(i int) bool { return d.overflow[i].as >= int32(v) })
	return d.overflow[i].hops
}

// nextOf decodes the next hop of the stored AS v from its word w: the AS
// at w's index in v's row of g for w's class, or far's entry when the
// index escapes. It returns -1 when w names no next hop.
func (d *Dest) nextOf(v int32, w uint16) int32 {
	c := wordClass(w)
	if c == ClassOrigin || c == ClassUnreachable {
		return -1
	}
	if i := w & idxMask; i != idxEscape {
		return d.g.Related(int(v), relOf(c))[i]
	}
	return d.far.next(v)
}

// step returns the next hop of the stored AS x, which ranks r, and that
// hop's rank. A provider hop, most of every path, reads both from x's
// rank-space provider row.
func (d *Dest) step(x, r int32) (int32, int32) {
	w := d.packed[r]
	if i := w & idxMask; wordClass(w) == ClassProvider && i != idxEscape {
		p := d.g.RankedProviders(int(r))[i]
		return p.AS, p.Rank
	}
	u := d.nextOf(x, w)
	return u, d.rank[u]
}

// announced returns u's word when u announces its route to some neighbour,
// which is without deriving anything: a stub other than the destination
// holds no customer route and is nobody's provider, so it announces
// nothing and reads as unreachable here.
func (d *Dest) announced(u int32) uint16 { return announced(d.packed, d.rank, d.dst, u) }

// announced is Dest.announced over the stored words packed, indexed by
// rank, of a table towards dst.
func announced(packed []uint16, rank []int32, dst, u int32) uint16 {
	if r := uint(rank[u]); r < uint(len(packed)) {
		return packed[r]
	}
	if u == dst {
		return originEntry
	}
	return unreachableEntry
}

// stubRoute returns the word of the stub v, its route's length and its next
// hop (both -1 when it has none): the side table's route if it has one, and
// otherwise what deriveStub makes of v's links in g.
func (d *Dest) stubRoute(v int32) (uint16, int, int32) {
	if v == d.dst {
		return originEntry, 0, -1
	}
	if i, ok := slices.BinarySearchFunc(d.stubs, v, func(s stubWord, v int32) int { return cmp.Compare(s.as, v) }); ok {
		s := d.stubs[i]
		if s.w == unreachableEntry {
			return s.w, -1, -1
		}
		return s.w, int(s.w >> hopsShift), s.next
	}
	return d.deriveStub(v, nil)
}

// deriveStub returns the word, the route's length and the next hop that
// Compute gives a stub other than the destination with g's links less those
// to the ASes in lost: the best route a peer that holds a customer route (or
// is the destination) offers, else the best route a provider offers, else
// none. The word's index is into v's rows of g.
func (d *Dest) deriveStub(v int32, lost []int32) (uint16, int, int32) {
	if row := d.g.Peers(int(v)); len(row) > 0 {
		if h, i := d.bestOffer(row, ClassCustomer, lost); i >= 0 {
			return routeWord(h+1, ClassPeer, i), h + 1, row[i]
		}
	}
	if row := d.g.Providers(int(v)); len(row) > 0 {
		if h, i := d.bestOffer(row, ClassProvider, lost); i >= 0 {
			return routeWord(h+1, ClassProvider, i), h + 1, row[i]
		}
	}
	return unreachableEntry, -1, -1
}

// bestOffer returns, of the routes of class most or better the ASes in row
// but those in lost announce, the shortest and of those the one first in
// the row, which ascends by AS, as its length and its index in row, or
// (0, -1) when there is none. A route's key is its word's hops field over
// its index, so the least key names it, unless the key carries the hops
// sentinel: then the true lengths decide.
func (d *Dest) bestOffer(row []int32, most Class, lost []int32) (int, int) {
	best := uint64(math.MaxUint64)
	for i, u := range row {
		if w := d.announced(u); wordClass(w) <= most && !slices.Contains(lost, u) {
			best = min(best, offerKey(w, i))
		}
	}
	if best == math.MaxUint64 {
		return 0, -1
	}
	h, i := int(best>>32), int(uint32(best))
	if h == hopsSentinel {
		h = math.MaxInt
		for j, u := range row {
			if w := d.announced(u); wordClass(w) <= most && !slices.Contains(lost, u) {
				if hu := int(d.overflowHops(int(u))); hu < h {
					h, i = hu, j
				}
			}
		}
	}
	return h, i
}

// offerKey is the key of the route w offered from index i of a row: its
// hops field over the index, so that the least key is the shortest route
// from the lowest index.
func offerKey(w uint16, i int) uint64 { return uint64(w>>hopsShift)<<32 | uint64(i) }

// Reachable reports whether v has any route to the destination.
func (d *Dest) Reachable(v int) bool { return d.cls(v) != ClassUnreachable }

// Class returns the class of v's best route.
func (d *Dest) Class(v int) Class { return d.cls(v) }

// Hops returns the AS-path length of v's best route (0 at the destination).
// It returns -1 when unreachable.
func (d *Dest) Hops(v int) int {
	if d.cls(v) == ClassUnreachable {
		return -1
	}
	return int(d.hops16(v))
}

// NextHop returns the next-hop AS on v's best route, or -1.
func (d *Dest) NextHop(v int) int { return int(d.next32(v)) }

// ASPath returns the default AS-level path [src, ..., dst] following best
// routes, or nil when src has no route. The path is sized from the route's
// length, so it is one allocation.
func (d *Dest) ASPath(src int) []int {
	h := d.Hops(src)
	if h < 0 {
		return nil
	}
	return d.appendPath(make([]int, 0, h+1), src)
}

// ASPathInto is ASPath building into buf[:0] (growing it if needed).
// Call sites that walk a path per flow or per epoch reuse one buffer
// instead of allocating a fresh slice each time. The result aliases buf's
// backing array when it fits.
func (d *Dest) ASPathInto(src int, buf []int) []int {
	if !d.Reachable(src) {
		return nil
	}
	return d.appendPath(buf[:0], src)
}

// appendPath appends to path the best path from n, which has a route, to
// the destination. Every AS past n on it is a next hop, and so the
// destination or an AS with customers, whose word is stored: only n's may
// be derived.
func (d *Dest) appendPath(path []int, n int) []int {
	x, r := int32(n), d.rank[n]
	if !d.stored(r) && x != d.dst {
		path = append(path, n)
		_, _, x = d.stubRoute(x)
		r = d.rank[x]
	}
	for ; ; x, r = d.step(x, r) {
		path = append(path, int(x))
		if x == d.dst {
			return path
		}
	}
}

// onBestPath reports whether v appears on the best path starting at n:
// the AS-path loop filter on one route, as offerWins applies it (RIBInto
// applies it to every neighbour through pathHolds).
func (d *Dest) onBestPath(n, v int) bool {
	if n == v {
		return true
	}
	_, hn, next := d.route(n)
	x, r := int32(n), d.rank[n]
	if !d.stored(r) && x != d.dst {
		if next < 0 {
			return false
		}
		x, r, hn = next, d.rank[next], hn-1 // past a stub, every word is stored
	}
	return d.pathHolds(x, r, hn, int32(v), d.Hops(v))
}

// pathHolds is onBestPath from x, which ranks r, is the destination or
// holds a stored route, and is hx hops from the destination, for v, which
// is hv hops from it (-1 when it has no route). Along a best path the hop
// count falls by one at every hop, so v can only be the AS hx-hv hops
// along, and the walk stops there; past x it reads stored words only, as
// appendPath does.
func (d *Dest) pathHolds(x, r int32, hx int, v int32, hv int) bool {
	if hv < 0 || hv > hx {
		return false
	}
	for k := hx - hv; k > 0; k-- {
		x, r = d.step(x, r)
	}
	return x == v
}

// computeScratch is the frontier of phases 1 and 2 of one route
// computation: which ASes to visit, never what their routes are (those are
// written straight into the result's packed words). Pooled, because a
// build takes one per batch and a repair one per destination. Nothing in it
// is sized by the graph, so one instance serves graphs of different N in
// turn.
type computeScratch struct {
	// buckets[h] lists the ASes whose best route is h hops long, each
	// once, in the order they got it. Phases 1 and 2 walk it as their
	// queue, in Compute and in repair alike.
	buckets [][]int32
	// far is the far side table of the words being written.
	far farTable
}

var scratchPool = sync.Pool{New: func() any { return new(computeScratch) }}

// push queues v as an AS whose route is h hops long.
func (sc *computeScratch) push(v int32, h int) {
	for h >= len(sc.buckets) {
		sc.buckets = append(sc.buckets, nil)
	}
	sc.buckets[h] = append(sc.buckets[h], v)
}

// level returns the first width ASes of buckets[h], the ones about to
// offer their h-hop routes. Routes too long for the inline hops field all
// carry the same sentinel there, so offer cannot break their ties; their
// level is sorted instead, and the first offer to reach an AS is then the
// one with the lowest next hop.
func (sc *computeScratch) level(h, width int) []int32 {
	level := sc.buckets[h][:width]
	if h+1 >= hopsSentinel {
		slices.Sort(level)
	}
	return level
}

// overflow returns the side table of the queued routes too long for the
// inline field, sorted by AS, or nil when there are none.
func (sc *computeScratch) overflow() []hopOverflow {
	var out []hopOverflow
	for h := hopsSentinel; h < len(sc.buckets); h++ {
		for _, v := range sc.buckets[h] {
			out = append(out, hopOverflow{as: v, hops: int16(h)})
		}
	}
	slices.SortFunc(out, func(a, b hopOverflow) int { return cmp.Compare(a.as, b.as) })
	return out
}

// routeWord packs an h-hop route of class c whose next hop sits at index i
// of the row for c.
func routeWord(h int, c Class, i int) uint16 {
	return uint16(min(h, hopsSentinel))<<hopsShift | uint16(c)<<classShift | uint16(min(i, idxEscape))
}

func wordClass(w uint16) Class { return Class(w >> classShift & classMask) }

// relOf is the relationship, as the holder sees it, of the next hop of a
// route of class c (customer, peer or provider): the row its index is in.
func relOf(c Class) topo.Rel { return topo.Rel(c - ClassCustomer) }

// offer presents the AS v, ranked r, with the route cand learned from its
// neighbour u, cand's index field still 0, and reports whether it is v's
// first route, in which case the caller queues it.
//
// Phases 1 and 2 each offer routes of one class in nondecreasing path
// length, so a route an AS already holds is never a longer one of that
// class, and cand replaces it only when it has the same length and class
// and a lower next hop: u must come before the next hop v holds in v's row,
// and its index is then looked up in that part of the row alone. Because
// every offer is compared with the stored best, the result does not depend
// on the order of offers of one length. (Words carrying the hops sentinel
// may stand for different lengths and are never replaced; see level.)
func (sc *computeScratch) offer(g *topo.Graph, packed []uint16, r, v int32, cand uint16, u int32) bool {
	cur := packed[r]
	first := cur == unreachableEntry
	if !first && (cur>>classShift != cand>>classShift || cand>>hopsShift == hopsSentinel) {
		return false
	}
	row := g.Related(int(v), relOf(wordClass(cand)))
	if !first {
		if i := cur & idxMask; i != idxEscape {
			if u > row[i] {
				return false
			}
			row = row[:i]
		} else if u > sc.far.next(v) {
			return false
		}
	}
	i, _ := slices.BinarySearch(row, u)
	packed[r] = cand | uint16(min(i, idxEscape))
	if escaped := i >= idxEscape; escaped || cur&idxMask == idxEscape {
		sc.far.set(v, u, escaped)
	}
	return first
}

// batchSize is the most destinations one phase-3 pass serves. The pass
// walks the body and reads each AS's provider row once for the whole batch,
// whose windows are 16 × 11.5 KB at paper scale and stay in a core's L2; a
// pass for one destination pays the walk alone, and batches longer than 16
// gain nothing more (EXPERIMENTS.md, "Tables build in batches").
const batchSize = 16

// Compute derives every AS's best route towards dst with the three-phase
// algorithm (customer routes propagate up, peer routes cross once, provider
// routes propagate down). The result is deterministic. It is ComputeAll's
// build for a batch of one.
func Compute(g *topo.Graph, dst int) *Dest {
	var out [1]*Dest
	computeBatch(g, []int{dst}, make([]uint16, g.TailStart()), out[:])
	return out[0]
}

// computeBatch computes the tables towards dsts into out, each one's words
// the next g.TailStart() of words.
func computeBatch(g *topo.Graph, dsts []int, words []uint16, out []*Dest) {
	sc := scratchPool.Get().(*computeScratch)
	defer scratchPool.Put(sc)
	sc.computeBatch(g, dsts, words, out)
}

// computeBatch is the three-phase algorithm over the ASes with customers for
// each destination of dsts, with sc as the queue of the first two phases;
// the stubs' words are derived when read. Phases 1 and 2 run one
// destination at a time, each into its own window of words; phase 3 is one
// pass over the body for the whole batch.
func (sc *computeScratch) computeBatch(g *topo.Graph, dsts []int, words []uint16, out []*Dest) {
	n := g.TailStart()
	for i, dst := range dsts {
		out[i] = sc.climb(g, dst, words[i*n:(i+1)*n:(i+1)*n])
	}

	// Phase 3: provider routes. Every AS that phases 1 and 2 left without a
	// route takes the best its providers hold, whatever their class: the
	// shortest, and of those the lowest next hop. The ASes are visited in
	// the graph's provider-first order, so a provider's word is final before
	// any of its customers reads it, and each AS is written once. Its
	// provider row, in rank space, is read once for every window of the
	// batch. It ascends by AS, as the Providers row the word indexes does,
	// so a provider's key is its word's hops field over its index j there,
	// and the least key is the shortest route with the lowest next hop,
	// written as it stands.
	for r, v := range g.ProviderOrder()[:n] {
		row := g.RankedProviders(r)
		for _, d := range out {
			packed := d.packed
			if packed[r] != unreachableEntry {
				continue // a customer or peer route, which no provider route beats
			}
			best := uint64(math.MaxUint64)
			for j, p := range row {
				if w := packed[p.Rank]; w != unreachableEntry {
					best = min(best, offerKey(w, j))
				}
			}
			if best == math.MaxUint64 {
				continue // no provider has a route
			}
			if h, j := best>>32, uint32(best); h < hopsSentinel-1 && j < idxEscape {
				packed[r] = uint16(h+1)<<hopsShift | uint16(ClassProvider)<<classShift | uint16(j)
			} else {
				d.provideFar(r, v, row, best)
			}
		}
	}
}

// provideFar is phase 3's write of the provider route of least key best to
// v, which ranks r and has the providers row, when the route is past the
// inline hops field or its next hop's index escapes.
func (d *Dest) provideFar(r int, v int32, row []topo.RankedAS, best uint64) {
	h, j := int(best>>32), int(uint32(best))
	if h == hopsSentinel {
		h, j = d.bestOffer(d.g.Providers(int(v)), ClassProvider, nil)
	}
	d.packed[r] = routeWord(h+1, ClassProvider, j)
	if j >= idxEscape {
		if d.far == nil {
			d.far = d.farIn[:0]
		}
		d.far.set(v, row[j].AS, true)
	}
	if h+1 >= hopsSentinel {
		d.addOverflow(v, int16(h+1))
	}
}

// climb runs phases 1 and 2 towards dst, writing the words of the customer
// and peer routes into packed, which holds g.TailStart() of them, and every
// other word unreachable. It returns the table with the side tables of
// those routes too long for the inline hops field and of those whose next
// hop's index escapes; phase 3 fills in the rest. Each phase reads only
// the adjacency entries that can carry its routes, through the graph's
// relationship-grouped view: the providers of the uphill cone and the
// peers of the cone.
func (sc *computeScratch) climb(g *topo.Graph, dst int, packed []uint16) *Dest {
	// Empty the queue but keep its arrays; levels only an earlier, deeper
	// computation reached stay behind as empty buckets.
	for h := range sc.buckets {
		sc.buckets[h] = sc.buckets[h][:0]
	}
	sc.far = sc.far[:0]

	rank := g.ProviderRanks()
	for r := range packed {
		packed[r] = unreachableEntry
	}
	if r := rank[dst]; int(r) < len(packed) {
		packed[r] = originEntry
	}
	sc.push(int32(dst), 0)

	// Phase 1: customer routes. The destination, then each AS that learned
	// a customer route, offers it to its providers, level by level. The
	// ASes queued when this ends are the uphill cone.
	for h := 0; h < len(sc.buckets); h++ {
		for _, c := range sc.level(h, len(sc.buckets[h])) {
			cand := routeWord(h+1, ClassCustomer, 0)
			for _, p := range g.Providers(int(c)) {
				if sc.offer(g, packed, rank[p], p, cand, c) {
					sc.push(p, h+1)
				}
			}
		}
	}

	// Phase 2: peer routes. Peers export only customer (and origin) routes,
	// so the offers come from the cone alone, and an AS holding a customer
	// route ignores them. The takers queue up behind the cone's own ASes,
	// whose count per level is read before the first of them arrives. The
	// stubs among the peers take theirs when read.
	levels, width := len(sc.buckets), 1
	for h := 0; h < levels; h++ {
		cone := sc.level(h, width)
		if h+1 < levels {
			width = len(sc.buckets[h+1])
		}
		for _, u := range cone {
			cand := routeWord(h+1, ClassPeer, 0)
			for _, v := range g.Peers(int(u)) {
				if r := rank[v]; int(r) < len(packed) && sc.offer(g, packed, r, v, cand, u) {
					sc.push(v, h+1)
				}
			}
		}
	}
	d := &Dest{dst: int32(dst), g: g, rank: rank, packed: packed, overflow: sc.overflow()}
	d.keepFar(sc.far)
	return d
}

// addOverflow records v's route as h hops long in the side table, which
// stays sorted by AS.
func (d *Dest) addOverflow(v int32, h int16) {
	i := sort.Search(len(d.overflow), func(i int) bool { return d.overflow[i].as >= v })
	d.overflow = slices.Insert(d.overflow, i, hopOverflow{as: v, hops: h})
}

// ComputeAll computes Dest tables for every destination in dsts, in
// parallel, each worker a batch of up to batchSize destinations at a time
// (fewer when there are too few destinations for every worker to get a full
// one). Results are positionally aligned with dsts. Their words are one
// block, each result's a capacity-clipped window of it: one allocation for
// the build, not one a destination (11.5 KB of words rounds up to Go's
// 12 KB size class), and no window's append can write its neighbour's.
func ComputeAll(g *topo.Graph, dsts []int, workers int) []*Dest {
	n := g.TailStart()
	words := make([]uint16, len(dsts)*n)
	out := make([]*Dest, len(dsts))
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	k := max(1, min(batchSize, (len(dsts)+workers-1)/workers))
	parallel.ForEach((len(dsts)+k-1)/k, workers, func(b int) {
		lo, hi := b*k, min((b+1)*k, len(dsts))
		computeBatch(g, dsts[lo:hi], words[lo*n:hi*n], out[lo:hi])
	})
	return out
}
