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
// packs into a single uint32:
//
//	bits  0–22  next-hop AS + 1 (0 = none; caps topologies at MaxASes)
//	bits 23–25  route class (ClassOrigin … ClassUnreachable)
//	bits 26–31  AS-path length 0–62; 63 is an overflow sentinel and the
//	            true length lives in the sorted overflow side table
//
// A Dest stores the word of each AS with customers only — the body of the
// graph's ProviderOrder, 5,772 of the 44,340 ASes at paper scale — so a
// destination is 23 KB and a full 44,340-destination table ~0.95 GiB (a
// word for all 44,340 ASes would be 177 KB and ~7.3 GB). Each stub's word
// is derived when read (see stubRoute). Unreachable entries are suppressed
// to the single canonical word ClassUnreachable<<classShift, so two tables
// on one graph agree word for word whenever they agree on reachability,
// class, hops, and next hop.
const (
	nextBits     = 23
	nextMask     = 1<<nextBits - 1
	classShift   = nextBits
	classMask    = 0x7
	hopsShift    = classShift + 3
	hopsSentinel = 63 // hops field value meaning "look in overflow"

	// MaxASes is the largest topology a Dest can index: next-hop+1 must
	// fit in the nextBits field.
	MaxASes = nextMask - 1

	unreachableEntry = uint32(ClassUnreachable) << classShift
	originEntry      = uint32(ClassOrigin) << classShift // 0 hops, no next hop
)

// hopOverflow records the true path length of an AS whose hops exceed the
// 6-bit inline field. Internet AS paths are short (the paper's dataset
// averages ~4 hops), so this table is almost always empty.
type hopOverflow struct {
	as   int32
	hops int16
}

// stubWord is the word of a stub with a failed link, held by a Dest a
// Table repaired when it differs from what the stub's links in the intact
// graph derive. Repair writes no route of hopsSentinel hops or more, so the
// word carries its length.
type stubWord struct {
	as int32
	w  uint32
}

// Dest holds, for one destination AS, every AS's best route: its class,
// AS-path length (hops to the destination) and next-hop AS. It stores the
// packed word (see the layout above) of each AS ranked before
// g.TailStart() in g's ProviderOrder, indexed by that rank; the array may
// be a window of one block ComputeAll made for a whole build.
// The other ASes are stubs, and under valley-free export a stub announces
// no route but its own, so no stored word depends on a stub's unless the
// stub is the destination: a stub's word is derived from its neighbours'
// when read, from g's links, or from the side table stubs for a stub a
// repair found cut off from some of them.
type Dest struct {
	dst      int32
	g        *topo.Graph   // the graph the stubs' words derive from
	rank     []int32       // g.ProviderRanks()
	packed   []uint32      // by rank, the ASes before g.TailStart()
	overflow []hopOverflow // sorted by as; rarely non-empty
	stubs    []stubWord    // sorted by as; nil unless a failed link touches a stub
}

// Dst returns the destination AS index.
func (d *Dest) Dst() int { return int(d.dst) }

// word returns v's packed word, stored or derived.
func (d *Dest) word(v int) uint32 {
	if r := uint(d.rank[v]); r < uint(len(d.packed)) {
		return d.packed[r]
	}
	w, _ := d.stubRoute(int32(v))
	return w
}

// cls is the internal class accessor.
func (d *Dest) cls(v int) Class { return wordClass(d.word(v)) }

// next32 is the internal next-hop accessor (-1 when none).
func (d *Dest) next32(v int) int32 { return int32(d.word(v)&nextMask) - 1 }

// hops16 is the internal path-length accessor; only valid for reachable v.
func (d *Dest) hops16(v int) int16 {
	if r := uint(d.rank[v]); r < uint(len(d.packed)) {
		return d.wordHops(v, d.packed[r])
	}
	_, h := d.stubRoute(int32(v))
	return int16(h)
}

// wordHops returns the length of the route w, which v holds.
func (d *Dest) wordHops(v int, w uint32) int16 {
	if h := int16(w >> hopsShift); h != hopsSentinel {
		return h
	}
	return d.overflowHops(v)
}

func (d *Dest) overflowHops(v int) int16 {
	i := sort.Search(len(d.overflow), func(i int) bool { return d.overflow[i].as >= int32(v) })
	return d.overflow[i].hops
}

// announced returns u's word when u announces its route to some neighbour,
// which is without deriving anything: a stub other than the destination
// holds no customer route and is nobody's provider, so it announces
// nothing and reads as unreachable here.
func (d *Dest) announced(u int32) uint32 { return announced(d.packed, d.rank, d.dst, u) }

// announced is Dest.announced over the stored words packed, indexed by
// rank, of a table towards dst.
func announced(packed []uint32, rank []int32, dst, u int32) uint32 {
	if r := uint(rank[u]); r < uint(len(packed)) {
		return packed[r]
	}
	if u == dst {
		return originEntry
	}
	return unreachableEntry
}

// stubRoute returns the word of the stub v and its route's length (-1 when
// it has none): the side table's word if it has one, and otherwise what
// deriveStub makes of v's links in g.
func (d *Dest) stubRoute(v int32) (uint32, int) {
	if v == d.dst {
		return originEntry, 0
	}
	if i, ok := slices.BinarySearchFunc(d.stubs, v, func(s stubWord, v int32) int { return cmp.Compare(s.as, v) }); ok {
		w := d.stubs[i].w
		return w, int(w >> hopsShift)
	}
	return d.deriveStub(d.g.Peers(int(v)), d.g.Providers(int(v)))
}

// deriveStub returns the word, and the route's length, that Compute gives a
// stub other than the destination with these peers and providers: the best
// route a peer that holds a customer route (or is the destination) offers,
// else the best route a provider offers, else none.
func (d *Dest) deriveStub(peers, providers []int32) (uint32, int) {
	if h, via := d.bestOffer(peers, ClassCustomer); via >= 0 {
		return routeWord(h+1, ClassPeer, via), h + 1
	}
	if h, via := d.bestOffer(providers, ClassProvider); via >= 0 {
		return routeWord(h+1, ClassProvider, via), h + 1
	}
	return unreachableEntry, -1
}

// bestOffer returns, of the routes of class most or better the ASes in row
// announce, the shortest and of those the one whose AS has the lowest
// index, as its length and that AS, or (0, -1) when there is none. A
// route's key is its word's hops field over the AS's index, so the least
// key names it, unless the key carries the hops sentinel: then the true
// lengths decide, and the lowest AS comes first in the ascending row.
func (d *Dest) bestOffer(row []int32, most Class) (int, int32) {
	best := uint32(math.MaxUint32)
	for _, u := range row {
		if w := d.announced(u); wordClass(w) <= most {
			best = min(best, w&keyMask|uint32(u))
		}
	}
	if best == math.MaxUint32 {
		return 0, -1
	}
	h, via := int(best>>hopsShift), int32(best&nextMask)
	if h == hopsSentinel {
		h = math.MaxInt
		for _, u := range row {
			if w := d.announced(u); wordClass(w) <= most {
				if hu := int(d.overflowHops(int(u))); hu < h {
					h, via = hu, u
				}
			}
		}
	}
	return h, via
}

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
	w := d.word(src)
	if w == unreachableEntry {
		return nil
	}
	return d.appendPath(make([]int, 0, int(d.hops16(src))+1), src, w)
}

// ASPathInto is ASPath building into buf[:0] (growing it if needed).
// Call sites that walk a path per flow or per epoch reuse one buffer
// instead of allocating a fresh slice each time. The result aliases buf's
// backing array when it fits.
func (d *Dest) ASPathInto(src int, buf []int) []int {
	w := d.word(src)
	if w == unreachableEntry {
		return nil
	}
	return d.appendPath(buf[:0], src, w)
}

// appendPath appends to path the best path from n, whose word is w, to the
// destination. Every AS past n on it is a next hop, and so the destination
// or an AS with customers, whose word is stored: only n's may be derived.
func (d *Dest) appendPath(path []int, n int, w uint32) []int {
	for x := n; ; {
		path = append(path, x)
		if int32(x) == d.dst {
			return path
		}
		x = int(w&nextMask) - 1
		w = d.announced(int32(x))
	}
}

// onBestPath reports whether v appears on the best path starting at n.
// Used for the standard AS-path loop filter when building the RIB.
func (d *Dest) onBestPath(n, v int) bool { return d.pathHolds(n, d.word(n), v) }

// pathHolds is onBestPath from n, whose word is w; past n it reads stored
// words only, as appendPath does.
func (d *Dest) pathHolds(n int, w uint32, v int) bool {
	for x := n; x != v; {
		if int32(x) == d.dst {
			return false
		}
		x = int(w&nextMask) - 1
		w = d.announced(int32(x))
	}
	return true
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

// routeWord packs an h-hop route of class c learned from AS via.
func routeWord(h int, c Class, via int32) uint32 {
	if h > hopsSentinel {
		h = hopsSentinel
	}
	return uint32(h)<<hopsShift | uint32(c)<<classShift | uint32(via+1)
}

func wordClass(w uint32) Class { return Class(w >> classShift & classMask) }

// offer presents the AS of rank r with the route cand and reports whether
// it is that AS's first route, in which case the caller queues it.
//
// Phases 1 and 2 each offer routes of one class in nondecreasing path
// length, so a route an AS already holds is never a longer one of that
// class, and cand replaces it only when it has the same length and class
// and a lower next hop: the packed words then differ in the next-hop field
// alone and compare like the next hops. Because every offer is compared
// with the stored best, the result does not depend on the order of offers
// of one length. (Words carrying the hops sentinel may stand for different
// lengths and are never replaced; see level.)
func offer(packed []uint32, r int32, cand uint32) bool {
	cur := packed[r]
	if cur == unreachableEntry {
		packed[r] = cand
		return true
	}
	if cur>>classShift == cand>>classShift && cand < cur && cand < hopsSentinel<<hopsShift {
		packed[r] = cand
	}
	return false
}

// batchSize is the most destinations one phase-3 pass serves. The pass
// walks the body and reads each AS's provider row once for the whole batch,
// whose windows are 16 × 23 KB at paper scale and stay in a core's L2; a
// pass for one destination pays the walk alone, and batches longer than 16
// gain nothing more (EXPERIMENTS.md, "Tables build in batches").
const batchSize = 16

// Compute derives every AS's best route towards dst with the three-phase
// algorithm (customer routes propagate up, peer routes cross once, provider
// routes propagate down). The result is deterministic. It is ComputeAll's
// build for a batch of one.
func Compute(g *topo.Graph, dst int) *Dest {
	var out [1]*Dest
	computeBatch(g, []int{dst}, make([]uint32, g.TailStart()), out[:])
	return out[0]
}

// computeBatch computes the tables towards dsts into out, each one's words
// the next g.TailStart() of words.
func computeBatch(g *topo.Graph, dsts []int, words []uint32, out []*Dest) {
	if n := g.N(); n > MaxASes {
		panic(fmt.Sprintf("bgp: topology has %d ASes, exceeding the packed-entry limit of %d", n, MaxASes))
	}
	sc := scratchPool.Get().(*computeScratch)
	defer scratchPool.Put(sc)
	sc.computeBatch(g, dsts, words, out)
}

// computeBatch is the three-phase algorithm over the ASes with customers for
// each destination of dsts, with sc as the queue of the first two phases;
// the stubs' words are derived when read. Phases 1 and 2 run one
// destination at a time, each into its own window of words; phase 3 is one
// pass over the body for the whole batch.
func (sc *computeScratch) computeBatch(g *topo.Graph, dsts []int, words []uint32, out []*Dest) {
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
	// batch. A provider's key is its word's hops field over its own index,
	// so the least key is the shortest route with the lowest next hop.
	for r, v := range g.ProviderOrder()[:n] {
		row := g.RankedProviders(r)
		for _, d := range out {
			packed := d.packed
			if packed[r] != unreachableEntry {
				continue // a customer or peer route, which no provider route beats
			}
			best := uint32(math.MaxUint32)
			for _, p := range row {
				if w := packed[p.Rank]; w != unreachableEntry {
					best = min(best, w&keyMask|uint32(p.AS))
				}
			}
			if best == math.MaxUint32 {
				continue // no provider has a route
			}
			h, via := int(best>>hopsShift), int32(best&nextMask)
			if h == hopsSentinel {
				h, via = d.bestOffer(g.Providers(int(v)), ClassProvider)
			}
			packed[r] = routeWord(h+1, ClassProvider, via)
			if h+1 >= hopsSentinel {
				d.addOverflow(v, int16(h+1))
			}
		}
	}
}

// climb runs phases 1 and 2 towards dst, writing the words of the customer
// and peer routes into packed, which holds g.TailStart() of them, and every
// other word unreachable. It returns the table with the side table of those
// routes too long for the inline hops field; phase 3 fills in the rest.
// Each phase reads only the adjacency entries that can carry its routes,
// through the graph's relationship-grouped view: the providers of the
// uphill cone and the peers of the cone.
func (sc *computeScratch) climb(g *topo.Graph, dst int, packed []uint32) *Dest {
	// Empty the queue but keep its arrays; levels only an earlier, deeper
	// computation reached stay behind as empty buckets.
	for h := range sc.buckets {
		sc.buckets[h] = sc.buckets[h][:0]
	}

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
			cand := routeWord(h+1, ClassCustomer, c)
			for _, p := range g.Providers(int(c)) {
				if offer(packed, rank[p], cand) {
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
			cand := routeWord(h+1, ClassPeer, u)
			for _, v := range g.Peers(int(u)) {
				if r := rank[v]; int(r) < len(packed) && offer(packed, r, cand) {
					sc.push(v, h+1)
				}
			}
		}
	}
	return &Dest{dst: int32(dst), g: g, rank: rank, packed: packed, overflow: sc.overflow()}
}

// bestProvider returns the least key over the providers in row that hold a
// route in packed, which is indexed by rank, or math.MaxUint32 when none
// does: the key phase 3 of computeBatch takes, for repair's rows.
func bestProvider(packed []uint32, rank, row []int32) uint32 {
	best := uint32(math.MaxUint32)
	for _, p := range row {
		if w := packed[rank[p]]; w != unreachableEntry {
			best = min(best, w&keyMask|uint32(p))
		}
	}
	return best
}

// keyMask keeps a word's hops field, the first part of a provider's key.
const keyMask = ^uint32(classMask<<classShift | nextMask)

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
// the build, not one a destination (23 KB of words rounds up to Go's
// 24 KB size class), and no window's append can write its neighbour's.
func ComputeAll(g *topo.Graph, dsts []int, workers int) []*Dest {
	n := g.TailStart()
	words := make([]uint32, len(dsts)*n)
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
