package bgp

import (
	"repro/internal/topo"
)

// Alt is one entry of an AS's multi-path RIB for a destination: a route
// offered by a directly connected neighbor.
type Alt struct {
	// Via is the neighbor AS announcing the route (the would-be next hop).
	Via int32
	// Class is the route's class from the local AS's perspective.
	Class Class
	// Hops is the AS-path length of the route as seen locally
	// (the neighbor's path length plus one).
	Hops int16
}

// Better reports whether a is preferred over b under standard selection:
// class, then AS-path length, then lowest next-hop AS.
func (a Alt) Better(b Alt) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.Hops != b.Hops {
		return a.Hops < b.Hops
	}
	return a.Via < b.Via
}

// RIB returns v's multi-path RIB towards d's destination: every route a
// neighbor exports to v under valley-free export policy, with the standard
// AS-path loop filter applied (routes whose path already contains v are
// discarded). Entries are sorted best-first, so RIB(...)[0] is the default
// route and the rest are MIFO's alternatives.
//
// The result is nil when v is the destination or has no routes.
func RIB(g *topo.Graph, d *Dest, v int) []Alt {
	return RIBInto(g, d, v, nil)
}

// RIBInto is RIB with a caller-provided scratch buffer: the result is
// built in buf[:0] (growing it if needed) and returned. A daemon that
// re-mines the RIB for every destination each control epoch reuses one
// buffer instead of allocating a fresh sorted slice per call (see
// BenchmarkSelectAlternative).
func RIBInto(g *topo.Graph, d *Dest, v int, buf []Alt) []Alt {
	if v == int(d.dst) {
		return nil
	}
	alts := buf[:0]
	for _, nb := range g.Neighbors(v) {
		n := int(nb.AS)
		nc := d.cls(n)
		if nc == ClassUnreachable {
			continue
		}
		// Export policy at n: to its customers n exports everything; to
		// peers and providers only customer (or origin) routes. nb.Rel is
		// n's role from v's viewpoint; v is n's customer iff n is v's
		// provider.
		if nb.Rel != topo.Provider && nc != ClassOrigin && nc != ClassCustomer {
			continue
		}
		// Standard loop filter: v must not appear in the announced path.
		if d.onBestPath(n, v) {
			continue
		}
		alts = append(alts, Alt{Via: nb.AS, Class: classOf(nb.Rel), Hops: d.hops16(n) + 1})
	}
	// Insertion sort, best-first; RIBs are small (== neighbor count).
	for i := 1; i < len(alts); i++ {
		for j := i; j > 0 && alts[j].Better(alts[j-1]); j-- {
			alts[j], alts[j-1] = alts[j-1], alts[j]
		}
	}
	return alts
}

// PathVia returns the AS path [v, via, ..., dst] taken when v forwards to
// neighbor via and the rest of the network follows default routes. It
// returns nil if via has no route.
func PathVia(d *Dest, v, via int) []int {
	if !d.Reachable(via) {
		return nil
	}
	return PathViaInto(d, v, via, make([]int, 0, int(d.hops16(via))+2))
}

// PathViaInto is PathVia building into buf[:0] (growing it if needed), for
// call sites that splice many candidate paths and keep at most one. The
// result aliases buf's backing array when it fits.
func PathViaInto(d *Dest, v, via int, buf []int) []int {
	if !d.Reachable(via) {
		return nil
	}
	path := append(buf[:0], v)
	for x := via; ; x = int(d.next32(x)) {
		path = append(path, x)
		if int32(x) == d.dst {
			return path
		}
	}
}

// RIBSize returns the number of RIB entries at v for destination d without
// materializing them.
func RIBSize(g *topo.Graph, d *Dest, v int) int {
	if v == int(d.dst) {
		return 0
	}
	count := 0
	for _, nb := range g.Neighbors(v) {
		n := int(nb.AS)
		nc := d.cls(n)
		if nc == ClassUnreachable {
			continue
		}
		if nb.Rel != topo.Provider && nc != ClassOrigin && nc != ClassCustomer {
			continue
		}
		if d.onBestPath(n, v) {
			continue
		}
		count++
	}
	return count
}
