package topo

import (
	"fmt"
	"sort"
)

// refBuilder is the map-based Builder the flat link table replaced, kept
// as the reference FuzzBuilderMatchesReference holds Builder to: a Go map
// for the link set, one growing []Neighbor per AS, and a sort.Slice of
// every AS's list when it packs the arena. Its HasLink, Degree, error texts
// and graphs are what Builder's must be.
type refBuilder struct {
	n     int
	adj   [][]Neighbor
	links map[uint64]struct{}
	edges int // directed adjacency entries accumulated so far
	err   error
}

// newRefBuilder returns a refBuilder for a topology with n ASes and no links.
func newRefBuilder(n int) *refBuilder {
	return &refBuilder{n: n, adj: make([][]Neighbor, n), links: make(map[uint64]struct{})}
}

// linkKey names the undirected pair (v, u) order-independently.
func linkKey(v, u int) uint64 {
	if v > u {
		v, u = u, v
	}
	return uint64(uint32(v))<<32 | uint64(uint32(u))
}

func (b *refBuilder) check(v, u int) bool {
	if b.err != nil {
		return false
	}
	if v < 0 || v >= b.n || u < 0 || u >= b.n {
		b.err = fmt.Errorf("topo: AS index out of range: (%d, %d) with n=%d", v, u, b.n)
		return false
	}
	if v == u {
		b.err = fmt.Errorf("topo: self-link at AS %d", v)
		return false
	}
	if _, dup := b.links[linkKey(v, u)]; dup {
		b.err = fmt.Errorf("topo: duplicate link between AS %d and AS %d", v, u)
		return false
	}
	return true
}

func (b *refBuilder) add(v, u int, rel Rel) {
	b.links[linkKey(v, u)] = struct{}{}
	b.adj[v] = append(b.adj[v], Neighbor{AS: int32(u), Rel: rel})
	b.adj[u] = append(b.adj[u], Neighbor{AS: int32(v), Rel: rel.Invert()})
	b.edges += 2
}

// AddPC records a provider–customer link: provider serves customer.
func (b *refBuilder) AddPC(provider, customer int) *refBuilder {
	if b.check(provider, customer) {
		b.add(provider, customer, Customer)
	}
	return b
}

// AddPeer records a settlement-free peering link between a and b.
func (b *refBuilder) AddPeer(x, y int) *refBuilder {
	if b.check(x, y) {
		b.add(x, y, Peer)
	}
	return b
}

// HasLink reports whether a link between v and u has been added so far.
// It is a constant-time set lookup.
func (b *refBuilder) HasLink(v, u int) bool {
	if v < 0 || v >= b.n || u < 0 || u >= b.n {
		return false
	}
	_, ok := b.links[linkKey(v, u)]
	return ok
}

// Degree returns the current number of neighbors of v.
func (b *refBuilder) Degree(v int) int { return len(b.adj[v]) }

// Build validates the accumulated links and returns the Graph. The
// provider–customer digraph must be acyclic (a Gao–Rexford assumption the
// paper's loop-freedom proof relies on).
//
// Build packs the per-AS lists into the CSR arena (one offsets array, one
// neighbor array), sorts each AS's segment by neighbor index, deals the
// sorted segments out into the rows of the relationship-grouped view,
// lists the ASes in provider-first order, with each one's rank in it, and
// copies the customer and provider rows of the ASes before the stubs into
// rank space.
func (b *refBuilder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		off:  make([]int32, b.n+1),
		nbrs: make([]Neighbor, 0, b.edges),
		goff: make([]int32, 3*b.n+1),
		grp:  make([]int32, b.edges),
	}
	for v := 0; v < b.n; v++ {
		seg := b.adj[v]
		start := len(g.nbrs)
		g.nbrs = append(g.nbrs, seg...)
		pack := g.nbrs[start:]
		sort.Slice(pack, func(i, j int) bool { return pack[i].AS < pack[j].AS })
		g.off[v+1] = int32(len(g.nbrs))
		for _, nb := range pack {
			g.goff[int(nb.Rel)*b.n+v+1]++ // row lengths, summed into offsets below
			switch nb.Rel {
			case Customer:
				g.pcLinks++ // counted once, from the provider side
			case Peer:
				if int32(v) < nb.AS {
					g.peerLinks++
				}
			}
		}
	}
	for r := 0; r < 3*b.n; r++ {
		g.goff[r+1] += g.goff[r]
	}
	next := append([]int32(nil), g.goff...) // where each row's next entry goes
	for v := 0; v < b.n; v++ {
		for _, nb := range g.Neighbors(v) {
			r := int(nb.Rel)*b.n + v
			g.grp[next[r]] = nb.AS
			next[r]++
		}
	}
	order, body, acyclic := g.providerOrder()
	if !acyclic {
		return nil, fmt.Errorf("topo: provider-customer relationship digraph contains a cycle")
	}
	g.order, g.rank, g.tail = order, ranksOf(order), int32(body)
	g.customerRanks()
	g.rankedProviders()
	g.customerSlots()
	return g, nil
}
