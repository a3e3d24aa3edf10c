package topo

import (
	"encoding/binary"
	"hash/fnv"
)

// Fingerprint hashes the ten arrays a Graph is made of — the offsets and
// entries of the Neighbors arena, of the relationship-grouped view and of
// the rank-space customer and provider rows, and the provider-first order
// and its ranks — up to their capacity. Only Builder.Build and
// RemoveLinks write them, and neither writes a graph it has returned, so a
// consumer of the accessors must leave the fingerprint of every graph it
// is handed where it found it (TestGraphFrozenAcrossConsumers).
func Fingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	for _, x := range g.off[:cap(g.off)] {
		put(x)
	}
	for _, nb := range g.nbrs[:cap(g.nbrs)] {
		put(nb.AS)
		put(int32(nb.Rel))
	}
	for _, x := range g.goff[:cap(g.goff)] {
		put(x)
	}
	for _, x := range g.grp[:cap(g.grp)] {
		put(x)
	}
	for _, x := range g.order[:cap(g.order)] {
		put(x)
	}
	for _, x := range g.rank[:cap(g.rank)] {
		put(x)
	}
	for _, x := range g.croff[:cap(g.croff)] {
		put(x)
	}
	for _, x := range g.crank[:cap(g.crank)] {
		put(x)
	}
	for _, x := range g.cslot[:cap(g.cslot)] {
		put(x)
	}
	for _, x := range g.proff[:cap(g.proff)] {
		put(x)
	}
	for _, p := range g.prank[:cap(g.prank)] {
		put(p.Rank)
		put(p.AS)
	}
	return h.Sum64()
}
