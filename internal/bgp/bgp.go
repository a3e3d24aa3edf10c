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
// At 4 bytes × N per destination this is 43% of the dense 7-byte
// (class+hops+next) layout the package previously used — the difference
// between ~7.3 GB and ~12.9 GB for a full 44,340-destination table at
// paper scale. Unreachable entries are suppressed to the single canonical
// word ClassUnreachable<<classShift, so two tables agree byte-for-byte
// whenever they agree on reachability, class, hops, and next hop.
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
)

// hopOverflow records the true path length of an AS whose hops exceed the
// 6-bit inline field. Internet AS paths are short (the paper's dataset
// averages ~4 hops), so this table is almost always empty.
type hopOverflow struct {
	as   int32
	hops int16
}

// Dest holds, for one destination AS, every AS's best route: its class,
// AS-path length (hops to the destination) and next-hop AS, packed one
// uint32 per AS (see the layout above). The packed array may live in a
// shared Arena when the Dest was produced by a bulk table build.
type Dest struct {
	dst      int32
	packed   []uint32
	overflow []hopOverflow // sorted by as; rarely non-empty
}

// Dst returns the destination AS index.
func (d *Dest) Dst() int { return int(d.dst) }

// cls is the internal class accessor.
func (d *Dest) cls(v int) Class { return Class(d.packed[v] >> classShift & classMask) }

// next32 is the internal next-hop accessor (-1 when none).
func (d *Dest) next32(v int) int32 { return int32(d.packed[v]&nextMask) - 1 }

// hops16 is the internal path-length accessor; only valid for reachable v.
func (d *Dest) hops16(v int) int16 {
	h := int16(d.packed[v] >> hopsShift)
	if h == hopsSentinel {
		return d.overflowHops(v)
	}
	return h
}

func (d *Dest) overflowHops(v int) int16 {
	i := sort.Search(len(d.overflow), func(i int) bool { return d.overflow[i].as >= int32(v) })
	return d.overflow[i].hops
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
// routes, or nil when src has no route.
func (d *Dest) ASPath(src int) []int { return d.ASPathInto(src, nil) }

// ASPathInto is ASPath building into buf[:0] (growing it if needed).
// Call sites that walk a path per flow or per epoch reuse one buffer
// instead of allocating a fresh slice each time. The result aliases buf's
// backing array when it fits.
func (d *Dest) ASPathInto(src int, buf []int) []int {
	if !d.Reachable(src) {
		return nil
	}
	path := buf[:0]
	v := src
	for {
		path = append(path, v)
		if int32(v) == d.dst {
			return path
		}
		v = int(d.next32(v))
	}
}

// onBestPath reports whether v appears on the best path starting at n.
// Used for the standard AS-path loop filter when building the RIB.
func (d *Dest) onBestPath(n, v int) bool {
	for x := n; ; x = int(d.next32(x)) {
		if x == v {
			return true
		}
		if int32(x) == d.dst {
			return false
		}
	}
}

// computeScratch is the frontier of phases 1 and 2 of one route
// computation: which ASes to visit, never what their routes are (those are
// written straight into the result's packed words). Pooled, because Compute
// runs once per destination per recompute. Nothing in it is sized by the
// graph, so one instance serves graphs of different N in turn.
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

// offer presents AS v with the route cand and reports whether it is v's
// first route, in which case the caller queues v.
//
// Phases 1 and 2 each offer routes of one class in nondecreasing path
// length, so a route v already holds is never a longer one of that class,
// and cand replaces it only when it has the same length and class and a
// lower next hop: the packed words then differ in the next-hop field alone
// and compare like the next hops. Because every offer is compared with the
// stored best, the result does not depend on the order of offers of one
// length. (Words carrying the hops sentinel may stand for different lengths
// and are never replaced; see level.)
func offer(packed []uint32, v int32, cand uint32) bool {
	cur := packed[v]
	if cur == unreachableEntry {
		packed[v] = cand
		return true
	}
	if cur>>classShift == cand>>classShift && cand < cur && cand < hopsSentinel<<hopsShift {
		packed[v] = cand
	}
	return false
}

// Compute derives every AS's best route towards dst with the three-phase
// algorithm (customer routes propagate up, peer routes cross once, provider
// routes propagate down). The result is deterministic.
func Compute(g *topo.Graph, dst int) *Dest { return ComputeArena(g, dst, nil) }

// ComputeArena is Compute allocating the result's packed array from a;
// a nil arena allocates from the heap. Bulk table builds pass a shared
// Arena so a 44k-destination table is a few thousand slab allocations
// instead of 44k individually GC-tracked arrays.
func ComputeArena(g *topo.Graph, dst int, a *Arena) *Dest {
	if n := g.N(); n > MaxASes {
		panic(fmt.Sprintf("bgp: topology has %d ASes, exceeding the packed-entry limit of %d", n, MaxASes))
	}
	sc := scratchPool.Get().(*computeScratch)
	defer scratchPool.Put(sc)
	return sc.compute(g, dst, a)
}

// compute is the three-phase algorithm, with sc as the queue of its first
// two phases. Each phase reads only the adjacency entries that can carry
// its routes, through the graph's relationship-grouped view: the providers
// of the uphill cone, the peers of the cone, and the providers of every AS
// those two phases left without a route. At paper scale that is ~75 k
// entries per destination, nearly all of them in phase 3.
func (sc *computeScratch) compute(g *topo.Graph, dst int, a *Arena) *Dest {
	// Empty the queue but keep its arrays; levels only an earlier, deeper
	// computation reached stay behind as empty buckets.
	for h := range sc.buckets {
		sc.buckets[h] = sc.buckets[h][:0]
	}

	packed := a.alloc(g.N())
	for v := range packed {
		packed[v] = unreachableEntry
	}
	packed[dst] = routeWord(0, ClassOrigin, -1)
	sc.push(int32(dst), 0)

	// Phase 1: customer routes. The destination, then each AS that learned
	// a customer route, offers it to its providers, level by level. The
	// ASes queued when this ends are the uphill cone.
	for h := 0; h < len(sc.buckets); h++ {
		for _, c := range sc.level(h, len(sc.buckets[h])) {
			cand := routeWord(h+1, ClassCustomer, c)
			for _, p := range g.Providers(int(c)) {
				if offer(packed, p, cand) {
					sc.push(p, h+1)
				}
			}
		}
	}

	// Phase 2: peer routes. Peers export only customer (and origin) routes,
	// so the offers come from the cone alone, and an AS holding a customer
	// route ignores them. The takers queue up behind the cone's own ASes,
	// whose count per level is read before the first of them arrives.
	levels, width := len(sc.buckets), 1
	for h := 0; h < levels; h++ {
		cone := sc.level(h, width)
		if h+1 < levels {
			width = len(sc.buckets[h+1])
		}
		for _, u := range cone {
			cand := routeWord(h+1, ClassPeer, u)
			for _, v := range g.Peers(int(u)) {
				if offer(packed, v, cand) {
					sc.push(v, h+1)
				}
			}
		}
	}

	// Phase 3: provider routes. Every AS that phases 1 and 2 left without a
	// route takes the best its providers hold, whatever their class: the
	// shortest, and of those the lowest next hop. The ASes are visited in
	// the graph's provider-first order, so a provider's word is final before
	// any of its customers reads it, and each AS is written once.
	d := &Dest{dst: int32(dst), packed: packed, overflow: sc.overflow()}
	for _, v := range g.ProviderOrder() {
		if packed[v] != unreachableEntry {
			continue // a customer or peer route, which no provider route beats
		}
		best := bestProvider(packed, g.Providers(int(v)))
		if best == math.MaxUint32 {
			continue // no provider has a route
		}
		h, via := int(best>>hopsShift), int32(best&nextMask)
		if h == hopsSentinel {
			h, via = d.longestTie(g.Providers(int(v)))
		}
		packed[v] = routeWord(h+1, ClassProvider, via)
		if h+1 >= hopsSentinel {
			d.addOverflow(v, int16(h+1))
		}
	}
	return d
}

// bestProvider returns the least key over the providers in row that hold a
// route in packed, or math.MaxUint32 when none does. A provider's key is
// its word's hops field over its own index, so the least key is the
// shortest route with the lowest next hop.
func bestProvider(packed []uint32, row []int32) uint32 {
	best := uint32(math.MaxUint32)
	for _, p := range row {
		if w := packed[p]; w != unreachableEntry {
			best = min(best, w&^(classMask<<classShift|nextMask)|uint32(p))
		}
	}
	return best
}

// longestTie breaks the tie phase 3's keys leave when every provider in row
// that has a route holds one too long for the inline hops field: the
// shortest by true length wins, and the lowest next hop among those, which
// comes first in the ascending row.
func (d *Dest) longestTie(row []int32) (hops int, via int32) {
	hops = math.MaxInt
	for _, p := range row {
		if d.packed[p] == unreachableEntry {
			continue
		}
		if h := int(d.overflowHops(int(p))); h < hops {
			hops, via = h, p
		}
	}
	return hops, via
}

// addOverflow records v's route as h hops long in the side table, which
// stays sorted by AS.
func (d *Dest) addOverflow(v int32, h int16) {
	i := sort.Search(len(d.overflow), func(i int) bool { return d.overflow[i].as >= v })
	d.overflow = slices.Insert(d.overflow, i, hopOverflow{as: v, hops: h})
}

// ComputeAll computes Dest tables for every destination in dsts, in
// parallel. Results are positionally aligned with dsts.
func ComputeAll(g *topo.Graph, dsts []int, workers int) []*Dest {
	return computeAllArena(g, dsts, workers, nil)
}

func computeAllArena(g *topo.Graph, dsts []int, workers int, a *Arena) []*Dest {
	return parallel.Map(len(dsts), workers, func(i int) *Dest {
		return ComputeArena(g, dsts[i], a)
	})
}
