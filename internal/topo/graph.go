// Package topo models the AS-level Internet topology MIFO operates on:
// ASes connected by inter-AS links annotated with business relationships
// (customer/provider or mutual peering), per Gao–Rexford.
//
// The package provides an immutable Graph built through a Builder, a
// synthetic Internet-like topology generator calibrated against the paper's
// Table I dataset (UCLA IRL, Nov 2014), and a CAIDA-style text format so
// real relationship inferences can be substituted for the generator.
package topo

import (
	"container/heap"
	"fmt"
	"sort"
	"unsafe"
)

// Rel is the business relationship of a neighbor as seen from the AS that
// holds the adjacency entry.
type Rel int8

const (
	// Customer means the neighbor is my customer (I am its provider).
	Customer Rel = iota
	// Peer means the neighbor and I are settlement-free peers.
	Peer
	// Provider means the neighbor is my provider (I am its customer).
	Provider
)

// Invert returns the relationship from the neighbor's point of view.
func (r Rel) Invert() Rel {
	switch r {
	case Customer:
		return Provider
	case Provider:
		return Customer
	default:
		return Peer
	}
}

// String returns a short human-readable name.
func (r Rel) String() string {
	switch r {
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	case Provider:
		return "provider"
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Neighbor is one adjacency entry: the neighbor's AS index and its
// relationship relative to the owning AS.
type Neighbor struct {
	AS  int32
	Rel Rel
}

// Graph is an immutable AS-level topology. ASes are dense indices [0, N).
//
// Adjacency is stored CSR-style in one arena: a single offsets array plus
// one packed neighbor array shared by every AS, instead of one slice header
// + backing array per AS. Per-AS adjacency segments are sorted by neighbor
// index, enabling binary-search relationship lookups on hub ASes with
// thousands of neighbors.
//
// Beside it sits a second view of the same adjacency, grouped by
// relationship (Customers, Peers, Providers), for code that walks one kind
// of edge only: route computation climbs providers, crosses peers and
// descends customers, and never wants to test Rel on entries it will skip.
// It is a second CSR of 3N rows, row rel*N+v holding v's neighbors of
// relationship rel: all customer lists first, then all peer lists, then all
// provider lists, so a walk over one kind of edge touches one third of the
// offsets and one stretch of the entries. It is a side index rather than a
// re-sort of nbrs because link numbering, RIB order and simulated outcomes
// all follow the order of Neighbors.
//
// Last, the graph keeps every AS listed once in a provider-first order
// (ProviderOrder), so route computation can visit each AS after all of its
// providers without sorting anything per destination, and each AS's
// position in it (ProviderRanks), so a sweep can mark ASes to visit in a
// bitset and still meet them in that order. A 44,340-AS / 107,819-link
// Internet graph is six allocations, ~3.7 MB: ~1.9 MB for off+nbrs, ~1.4 MB
// for goff+grp and 177 KB each for order and rank.
type Graph struct {
	off       []int32    // len N()+1; AS v's neighbors live in nbrs[off[v]:off[v+1]]
	nbrs      []Neighbor // len 2*Links(), sorted by neighbor index within each segment
	goff      []int32    // len 3*N()+1; row r = rel*N()+v of the grouped view is grp[goff[r]:goff[r+1]]
	grp       []int32    // len 2*Links(), neighbor indices, ascending within each row
	order     []int32    // len N(), every AS once, each after all of its providers
	rank      []int32    // len N(), the inverse of order: order[rank[v]] == v
	pcLinks   int
	peerLinks int
}

// N returns the number of ASes.
func (g *Graph) N() int { return len(g.off) - 1 }

// Links returns the total number of undirected inter-AS links.
func (g *Graph) Links() int { return g.pcLinks + g.peerLinks }

// PCLinks returns the number of provider–customer links.
func (g *Graph) PCLinks() int { return g.pcLinks }

// PeerLinks returns the number of mutual peering links.
func (g *Graph) PeerLinks() int { return g.peerLinks }

// Degree returns the number of neighbors of AS v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the adjacency list of AS v, sorted by neighbor index.
// The returned slice aliases the graph's packed arena; callers must not
// modify it. Its capacity is clipped to its length (s[lo:hi:hi]), so an
// append through it reallocates instead of overwriting AS v+1's row.
func (g *Graph) Neighbors(v int) []Neighbor {
	lo, hi := g.off[v], g.off[v+1]
	return g.nbrs[lo:hi:hi]
}

// Customers returns the ASes v provides transit to, ascending. Like
// Neighbors, the slice aliases the graph's arena and its capacity is
// clipped so an append cannot reach the next row; callers must not
// modify it.
func (g *Graph) Customers(v int) []int32 { return g.row(v) }

// Peers returns v's settlement-free peers, ascending, under the same
// aliasing rule as Customers.
func (g *Graph) Peers(v int) []int32 { return g.row(g.N() + v) }

// Providers returns the ASes v buys transit from, ascending, under the
// same aliasing rule as Customers.
func (g *Graph) Providers(v int) []int32 { return g.row(2*g.N() + v) }

// Related returns v's neighbours of relationship rel — Customers, Peers or
// Providers picked by value, for code that walks one kind of edge or
// another by parameter — under the same aliasing rule as Customers.
func (g *Graph) Related(v int, rel Rel) []int32 { return g.row(int(rel)*g.N() + v) }

// row returns row r of the grouped view, capacity clipped.
func (g *Graph) row(r int) []int32 {
	lo, hi := g.goff[r], g.goff[r+1]
	return g.grp[lo:hi:hi]
}

// ProviderOrder returns every AS once, each after all of its providers: a
// topological order of the provider→customer digraph. Of the ASes whose
// providers are all listed, the lowest index comes next, so a graph whose
// providers all have lower indices than their customers (every Generate
// output) gets the identity order. Like Customers, the slice aliases the
// graph, its capacity is clipped, and callers must not modify it.
func (g *Graph) ProviderOrder() []int32 { return g.order[:len(g.order):len(g.order)] }

// ProviderRanks returns each AS's position in ProviderOrder, indexed by AS:
// ProviderOrder()[ProviderRanks()[v]] == v, and every provider ranks below
// its customers. The slice aliases the graph like ProviderOrder.
func (g *Graph) ProviderRanks() []int32 { return g.rank[:len(g.rank):len(g.rank)] }

// ranksOf returns the inverse of the permutation order.
func ranksOf(order []int32) []int32 {
	rank := make([]int32, len(order))
	for i, v := range order {
		rank[v] = int32(i)
	}
	return rank
}

// MemStats accounts the graph's memory footprint.
type MemStats struct {
	// Nodes and Links mirror N() and Links().
	Nodes, Links int
	// OffsetBytes is the size of the CSR offsets array.
	OffsetBytes int64
	// NeighborBytes is the size of the packed neighbor arena
	// (two directed entries per undirected link).
	NeighborBytes int64
	// GroupedBytes is the size of the relationship-grouped view: its
	// offsets and its packed AS indices.
	GroupedBytes int64
	// OrderBytes is the size of the provider-first order and its inverse.
	OrderBytes int64
	// TotalBytes is the sum of the above — the whole graph footprint.
	TotalBytes int64
	// BytesPerLink is TotalBytes per undirected link.
	BytesPerLink float64
}

// MemStats returns the graph's memory accounting.
func (g *Graph) MemStats() MemStats {
	m := MemStats{
		Nodes:         g.N(),
		Links:         g.Links(),
		OffsetBytes:   int64(cap(g.off)) * int64(unsafe.Sizeof(int32(0))),
		NeighborBytes: int64(cap(g.nbrs)) * int64(unsafe.Sizeof(Neighbor{})),
		GroupedBytes:  int64(cap(g.goff)+cap(g.grp)) * int64(unsafe.Sizeof(int32(0))),
		OrderBytes:    int64(cap(g.order)+cap(g.rank)) * int64(unsafe.Sizeof(int32(0))),
	}
	m.TotalBytes = m.OffsetBytes + m.NeighborBytes + m.GroupedBytes + m.OrderBytes
	if m.Links > 0 {
		m.BytesPerLink = float64(m.TotalBytes) / float64(m.Links)
	}
	return m
}

// Rel returns the relationship of neighbor u as seen from v, and whether a
// link (v, u) exists; an endpoint outside [0, N) names no link. Adjacency
// segments are sorted, so this is a binary search — O(log degree) even on
// hub ASes (see BenchmarkGraphRelHub).
func (g *Graph) Rel(v, u int) (Rel, bool) {
	if n := g.N(); v < 0 || v >= n || u < 0 || u >= n {
		return 0, false
	}
	list := g.Neighbors(v)
	i := sort.Search(len(list), func(i int) bool { return list[i].AS >= int32(u) })
	if i < len(list) && list[i].AS == int32(u) {
		return list[i].Rel, true
	}
	return 0, false
}

// HasLink reports whether an inter-AS link between v and u exists.
func (g *Graph) HasLink(v, u int) bool {
	_, ok := g.Rel(v, u)
	return ok
}

// IsCustomer reports whether u is a customer of v.
func (g *Graph) IsCustomer(v, u int) bool {
	r, ok := g.Rel(v, u)
	return ok && r == Customer
}

// CustomerCount returns the number of customers of v.
func (g *Graph) CustomerCount(v int) int { return len(g.Customers(v)) }

// TransitNeighborCount returns the number of providers plus peers of v —
// the ranking metric the paper uses for content providers ("by the number
// of providers and peers").
func (g *Graph) TransitNeighborCount(v int) int { return g.Degree(v) - g.CustomerCount(v) }

// IsStub reports whether v has no customers.
func (g *Graph) IsStub(v int) bool { return g.CustomerCount(v) == 0 }

// Stats summarizes the topology in Table I's terms.
type Stats struct {
	Nodes     int
	Links     int
	PCLinks   int
	PeerLinks int

	AvgDegree    float64
	MaxDegree    int
	Stubs        int // ASes with no customers
	MultiHomed   int // ASes with >= 2 neighbors
	PeerFraction float64
}

// Stats computes summary statistics for the graph.
func (g *Graph) Stats() Stats {
	s := Stats{
		Nodes:     g.N(),
		Links:     g.Links(),
		PCLinks:   g.pcLinks,
		PeerLinks: g.peerLinks,
	}
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d >= 2 {
			s.MultiHomed++
		}
		if g.IsStub(v) {
			s.Stubs++
		}
	}
	if s.Nodes > 0 {
		s.AvgDegree = 2 * float64(s.Links) / float64(s.Nodes)
	}
	if s.Links > 0 {
		s.PeerFraction = float64(s.PeerLinks) / float64(s.Links)
	}
	return s
}

// Builder accumulates links and produces an immutable Graph.
//
// Link existence is tracked in a hash set keyed by the endpoint pair, so
// duplicate detection and HasLink are O(1) regardless of degree — adding
// the last peering link of a 5,000-neighbor hub costs the same as its
// first (the per-AS linear scans this replaces made building hub-heavy
// topologies quadratic in hub degree).
type Builder struct {
	n     int
	adj   [][]Neighbor
	links map[uint64]struct{}
	edges int // directed adjacency entries accumulated so far
	err   error
}

// NewBuilder returns a Builder for a topology with n ASes and no links.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, adj: make([][]Neighbor, n), links: make(map[uint64]struct{})}
}

// linkKey names the undirected pair (v, u) order-independently.
func linkKey(v, u int) uint64 {
	if v > u {
		v, u = u, v
	}
	return uint64(uint32(v))<<32 | uint64(uint32(u))
}

func (b *Builder) check(v, u int) bool {
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

func (b *Builder) add(v, u int, rel Rel) {
	b.links[linkKey(v, u)] = struct{}{}
	b.adj[v] = append(b.adj[v], Neighbor{AS: int32(u), Rel: rel})
	b.adj[u] = append(b.adj[u], Neighbor{AS: int32(v), Rel: rel.Invert()})
	b.edges += 2
}

// AddPC records a provider–customer link: provider serves customer.
func (b *Builder) AddPC(provider, customer int) *Builder {
	if b.check(provider, customer) {
		b.add(provider, customer, Customer)
	}
	return b
}

// AddPeer records a settlement-free peering link between a and b.
func (b *Builder) AddPeer(x, y int) *Builder {
	if b.check(x, y) {
		b.add(x, y, Peer)
	}
	return b
}

// HasLink reports whether a link between v and u has been added so far.
// It is a constant-time set lookup.
func (b *Builder) HasLink(v, u int) bool {
	if v < 0 || v >= b.n || u < 0 || u >= b.n {
		return false
	}
	_, ok := b.links[linkKey(v, u)]
	return ok
}

// Degree returns the current number of neighbors of v.
func (b *Builder) Degree(v int) int { return len(b.adj[v]) }

// Build validates the accumulated links and returns the Graph. The
// provider–customer digraph must be acyclic (a Gao–Rexford assumption the
// paper's loop-freedom proof relies on).
//
// Build packs the per-AS lists into the CSR arena (one offsets array, one
// neighbor array), sorts each AS's segment by neighbor index, deals the
// sorted segments out into the rows of the relationship-grouped view, and
// lists the ASes in provider-first order, with each one's rank in it.
func (b *Builder) Build() (*Graph, error) {
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
	order, acyclic := g.providerOrder()
	if !acyclic {
		return nil, fmt.Errorf("topo: provider-customer relationship digraph contains a cycle")
	}
	g.order, g.rank = order, ranksOf(order)
	return g, nil
}

// providerOrder runs Kahn's algorithm over provider→customer edges, taking
// the lowest ready index first, and reports whether it listed every AS: an
// AS on a provider-customer cycle never has all of its providers listed.
//
// A scan up the indices finds the ready ASes it has not passed yet; only
// those that become ready behind it wait in a heap, and they are all lower
// than anything the scan has still to find. Where every provider has a
// lower index than its customers the heap stays empty.
func (g *Graph) providerOrder() (order []int32, acyclic bool) {
	n := g.N()
	unlisted := make([]int32, n) // providers of v not yet in order
	for v := range unlisted {
		unlisted[v] = int32(len(g.Providers(v)))
	}
	order = make([]int32, 0, n)
	var behind minHeap
	for scan := 0; ; {
		var v int32
		if len(behind) > 0 {
			v = heap.Pop(&behind).(int32)
		} else {
			for scan < n && unlisted[scan] > 0 {
				scan++
			}
			if scan == n {
				break
			}
			v = int32(scan)
			scan++
		}
		order = append(order, v)
		for _, c := range g.Customers(int(v)) {
			if unlisted[c]--; unlisted[c] == 0 && int(c) < scan {
				heap.Push(&behind, c)
			}
		}
	}
	return order, len(order) == n
}

// minHeap holds AS indices for container/heap, lowest on top.
type minHeap []int32

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(v any)        { *h = append(*h, v.(int32)) }
func (h *minHeap) Pop() any {
	v := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return v
}

// Connected reports whether the underlying undirected graph is connected
// (ignoring relationship direction). An empty graph is connected.
func (g *Graph) Connected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	visited := make([]bool, n)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.Neighbors(v) {
			if !visited[nb.AS] {
				visited[nb.AS] = true
				count++
				stack = append(stack, int(nb.AS))
			}
		}
	}
	return count == n
}
