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
	"math"
	"slices"
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
// bitset and still meet them in that order. The order ends with the stubs
// in IsStub's sense, the ASes without customers, from TailStart on: 87 % of
// an Internet graph, whose routes no other AS reads, so a route table
// stores the words of the ASes before TailStart only. For the sweeps over
// those words it keeps two more CSRs in rank space, one row for each AS
// before TailStart: the ranks of its customers before TailStart
// (CustomerRanks), so a walk down customer links meets no stub and needs no
// rank lookup, with the AS's own place in each of those customers' provider
// rows (CustomerSlots), and its providers with their ranks
// (RankedProviders), so a pull from providers reads their words without
// one either.
// A 44,340-AS / 107,819-link Internet graph is ten allocations, ~3.8 MB:
// ~1.9 MB for off+nbrs, ~1.4 MB for goff+grp, 177 KB each for order and
// rank, 62 KB for croff+crank and 100 KB for proff+prank.
type Graph struct {
	off       []int32    // len N()+1; AS v's neighbors live in nbrs[off[v]:off[v+1]]
	nbrs      []Neighbor // len 2*Links(), sorted by neighbor index within each segment
	goff      []int32    // len 3*N()+1; row r = rel*N()+v of the grouped view is grp[goff[r]:goff[r+1]]
	grp       []int32    // len 2*Links(), neighbor indices, ascending within each row
	order     []int32    // len N(), every AS once, each after all of its providers, stubs last
	rank      []int32    // len N(), the inverse of order: order[rank[v]] == v
	tail      int32      // where the stubs begin in order
	croff     []int32    // len tail+1; the AS at rank r < tail has its customer ranks in crank[croff[r]:croff[r+1]]
	crank     []int32    // the ranks below tail of those customers, ascending within each row
	cslot     []int32    // beside crank: the index of the row's AS in that customer's provider row
	proff     []int32    // len tail+1; the AS at rank r < tail has its providers in prank[proff[r]:proff[r+1]]
	prank     []RankedAS // those providers with their ranks, ascending by AS within each row
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
// topological order of the provider→customer digraph. It is a body and a
// tail. The tail, from TailStart on, is every stub (IsStub), so no AS has
// one of them for a provider, in ascending index. The body is everything
// else, and of its ASes whose providers are all listed the lowest index
// comes next, so on a graph whose providers all have lower indices than
// their customers (every Generate output) the body ascends. RemoveLinks
// keeps its source's order, so on a cut graph the tail is what were stubs
// before the cut. Like Customers, the slice aliases the graph, its capacity
// is clipped, and callers must not modify it.
func (g *Graph) ProviderOrder() []int32 { return g.order[:len(g.order):len(g.order)] }

// ProviderRanks returns each AS's position in ProviderOrder, indexed by AS:
// ProviderOrder()[ProviderRanks()[v]] == v, and every provider ranks below
// its customers. The slice aliases the graph like ProviderOrder.
func (g *Graph) ProviderRanks() []int32 { return g.rank[:len(g.rank):len(g.rank)] }

// TailStart returns the position in ProviderOrder where the stubs begin:
// every AS ranked there or later has no customers, and every AS ranked
// earlier has some, or had them before RemoveLinks cut them.
func (g *Graph) TailStart() int { return int(g.tail) }

// CustomerRanks returns, for the AS ranked r in ProviderOrder, where r is
// below TailStart, the ranks of its customers that rank below TailStart
// too, ascending: its Customers without the stubs, in rank space. It is
// what a sweep over a route table's stored words walks down customer
// links, since those words are indexed by rank and no stub has one. The
// slice aliases the graph under the same rule as Customers.
func (g *Graph) CustomerRanks(r int) []int32 {
	lo, hi := g.croff[r], g.croff[r+1]
	return g.crank[lo:hi:hi]
}

// CustomerSlots returns, beside CustomerRanks(r), the index of the AS
// ranked r in each of those customers' Providers (and RankedProviders)
// rows: where a route a customer learns from it sits in the customer's
// provider row. The slice aliases the graph under the same rule as
// Customers.
func (g *Graph) CustomerSlots(r int) []int32 {
	lo, hi := g.croff[r], g.croff[r+1]
	return g.cslot[lo:hi:hi]
}

// RankedAS is an entry of a rank-space row: an AS and its rank in
// ProviderOrder.
type RankedAS struct {
	Rank, AS int32
}

// RankedProviders returns, for the AS ranked r in ProviderOrder, where r is
// below TailStart, its Providers with their ranks, ascending by AS. Every
// provider ranks below TailStart, since it has a customer (on a graph
// RemoveLinks cut, it had one before the cut). It is what a pull over a
// route table's stored words reads up provider links: a provider's word by
// its rank, and the provider itself for the lowest-next-hop tie-break. The
// slice aliases the graph under the same rule as Customers.
func (g *Graph) RankedProviders(r int) []RankedAS {
	lo, hi := g.proff[r], g.proff[r+1]
	return g.prank[lo:hi:hi]
}

// rankedProviders fills the CSR RankedProviders reads from the provider
// rows and the ranks.
func (g *Graph) rankedProviders() {
	body := g.order[:g.tail]
	g.proff = make([]int32, len(body)+1)
	for r, v := range body {
		g.proff[r+1] = g.proff[r] + int32(len(g.Providers(int(v))))
	}
	g.prank = make([]RankedAS, g.proff[len(body)])
	for r, v := range body {
		row := g.prank[g.proff[r]:g.proff[r+1]]
		for i, p := range g.Providers(int(v)) {
			row[i] = RankedAS{Rank: g.rank[p], AS: p}
		}
	}
}

// customerSlots fills the rows CustomerSlots reads from CustomerRanks and
// the rank-space provider rows, which must be filled already.
func (g *Graph) customerSlots() {
	g.cslot = make([]int32, len(g.crank))
	for r := 0; r < int(g.tail); r++ {
		for i := g.croff[r]; i < g.croff[r+1]; i++ {
			row := g.RankedProviders(int(g.crank[i]))
			j := 0
			for row[j].Rank != int32(r) {
				j++
			}
			g.cslot[i] = int32(j)
		}
	}
}

// customerRanks fills the CSR CustomerRanks reads from the customer rows,
// the order and the ranks.
func (g *Graph) customerRanks() {
	body := g.order[:g.tail]
	g.croff = make([]int32, len(body)+1)
	for r, v := range body {
		n := g.croff[r]
		for _, c := range g.Customers(int(v)) {
			if g.rank[c] < g.tail {
				n++
			}
		}
		g.croff[r+1] = n
	}
	g.crank = make([]int32, g.croff[len(body)])
	for r, v := range body {
		row := g.crank[g.croff[r]:g.croff[r]]
		for _, c := range g.Customers(int(v)) {
			if rc := g.rank[c]; rc < g.tail {
				row = append(row, rc)
			}
		}
		slices.Sort(row)
	}
}

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
	// CustomerRankBytes is the size of the rank-space customer rows
	// (CustomerRanks and CustomerSlots): their offsets, ranks and slots.
	CustomerRankBytes int64
	// ProviderRankBytes is the size of the rank-space provider rows
	// (RankedProviders): their offsets and their entries.
	ProviderRankBytes int64
	// TotalBytes is the sum of the above — the whole graph footprint.
	TotalBytes int64
	// BytesPerLink is TotalBytes per undirected link.
	BytesPerLink float64
}

// MemStats returns the graph's memory accounting.
func (g *Graph) MemStats() MemStats {
	m := MemStats{
		Nodes:             g.N(),
		Links:             g.Links(),
		OffsetBytes:       int64(cap(g.off)) * int64(unsafe.Sizeof(int32(0))),
		NeighborBytes:     int64(cap(g.nbrs)) * int64(unsafe.Sizeof(Neighbor{})),
		GroupedBytes:      int64(cap(g.goff)+cap(g.grp)) * int64(unsafe.Sizeof(int32(0))),
		OrderBytes:        int64(cap(g.order)+cap(g.rank)) * int64(unsafe.Sizeof(int32(0))),
		CustomerRankBytes: int64(cap(g.croff)+cap(g.crank)+cap(g.cslot)) * int64(unsafe.Sizeof(int32(0))),
		ProviderRankBytes: int64(cap(g.proff))*int64(unsafe.Sizeof(int32(0))) + int64(cap(g.prank))*int64(unsafe.Sizeof(RankedAS{})),
	}
	m.TotalBytes = m.OffsetBytes + m.NeighborBytes + m.GroupedBytes + m.OrderBytes + m.CustomerRankBytes + m.ProviderRankBytes
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
// It keeps every link in one flat array that is also the link set: an
// open-addressed hash table keyed by the endpoint pair, probed linearly
// and doubled before it is half full, each occupied slot one link with
// its relationship packed into the same word. Duplicate detection and
// HasLink are O(1) regardless of degree, so adding the last peering link
// of a 5,000-neighbor hub costs the same as its first. Beside it sits one
// degree count per AS, which Build turns into the CSR offsets. Nothing is
// kept per AS beyond that count: Build deals the links out into the arena
// by counting sort instead of packing and sorting a list per AS.
type Builder struct {
	n     int
	deg   []int32  // deg[v] is v's number of neighbors so far
	slots []uint64 // the link set, len a power of two or 0; 0 marks an empty slot
	links int      // occupied slots
	err   error
}

// A slot holds one link, its endpoints lo < hi and the relationship of hi
// as seen from lo: rel<<relShift | lo<<31 | hi. AS indices fit in 31 bits
// (Neighbor.AS is an int32), and hi > lo >= 0, so an occupied slot is
// never 0.
const (
	relShift = 62
	pairMask = 1<<relShift - 1 // lo<<31 | hi
	hiMask   = 1<<31 - 1       // hi
)

// NewBuilder returns a Builder for a topology with n ASes and no links.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, deg: make([]int32, n)}
}

// pairOf names the undirected pair (v, u) order-independently.
func pairOf(v, u int) uint64 {
	if v > u {
		v, u = u, v
	}
	return uint64(v)<<31 | uint64(u)
}

// find returns the slot holding pair, or the empty slot where it would go.
// The table must have an empty slot.
func (b *Builder) find(pair uint64) (i int, found bool) {
	mask := len(b.slots) - 1
	for i = int((pair * 0x9E3779B97F4A7C15) >> 32 & uint64(mask)); ; i = (i + 1) & mask {
		switch s := b.slots[i]; {
		case s == 0:
			return i, false
		case s&pairMask == pair:
			return i, true
		}
	}
}

// grow doubles the table (or makes its first one) and reinserts every link.
func (b *Builder) grow() {
	old := b.slots
	b.slots = make([]uint64, max(8, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			i, _ := b.find(s & pairMask)
			b.slots[i] = s
		}
	}
}

// add records the link (v, u) with u's relationship rel as seen from v,
// unless an earlier call failed or this one is out of range, a self-link
// or a duplicate: the first such call sets the error Build returns.
func (b *Builder) add(v, u int, rel Rel) {
	if b.err != nil {
		return
	}
	if v < 0 || v >= b.n || u < 0 || u >= b.n {
		b.err = fmt.Errorf("topo: AS index out of range: (%d, %d) with n=%d", v, u, b.n)
		return
	}
	if v == u {
		b.err = fmt.Errorf("topo: self-link at AS %d", v)
		return
	}
	if 2*(b.links+1) > len(b.slots) {
		b.grow()
	}
	pair := pairOf(v, u)
	i, dup := b.find(pair)
	if dup {
		b.err = fmt.Errorf("topo: duplicate link between AS %d and AS %d", v, u)
		return
	}
	if v > u {
		rel = rel.Invert()
	}
	b.slots[i] = uint64(rel)<<relShift | pair
	b.links++
	b.deg[v]++
	b.deg[u]++
}

// AddPC records a provider–customer link: provider serves customer.
func (b *Builder) AddPC(provider, customer int) *Builder {
	b.add(provider, customer, Customer)
	return b
}

// AddPeer records a settlement-free peering link between a and b.
func (b *Builder) AddPeer(x, y int) *Builder {
	b.add(x, y, Peer)
	return b
}

// HasLink reports whether a link between v and u has been added so far.
// It is a constant-time set lookup.
func (b *Builder) HasLink(v, u int) bool {
	if v < 0 || v >= b.n || u < 0 || u >= b.n || b.links == 0 {
		return false
	}
	_, ok := b.find(pairOf(v, u))
	return ok
}

// Degree returns the current number of neighbors of v.
func (b *Builder) Degree(v int) int { return int(b.deg[v]) }

// Build validates the accumulated links and returns the Graph. The
// provider–customer digraph must be acyclic (a Gao–Rexford assumption the
// paper's loop-freedom proof relies on).
//
// Build lays the CSR arena out from the degrees and fills it by counting
// sort, in three passes with one cursor per AS. Each AS's segment is its
// lower neighbors, then its higher ones. The first pass deals every link
// to its lower end's higher part, in table order. The second walks the
// ASes up, copying each into the lower part of its higher neighbors, which
// therefore fill in ascending order. The third walks them up again,
// copying each into the higher part of its lower neighbors, which
// overwrites the unsorted higher parts in ascending order. The grouped
// view's row lengths are counted in the first pass and its rows dealt out
// from the sorted segments. Build then lists the ASes in provider-first
// order, with each one's rank in it, and copies the customer and provider
// rows of the ASes before the stubs into rank space.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n, edges := b.n, 2*b.links
	g := &Graph{
		off:  make([]int32, n+1),
		nbrs: make([]Neighbor, edges),
		goff: make([]int32, 3*n+1),
		grp:  make([]int32, edges),
	}
	for v, d := range b.deg {
		g.off[v+1] = g.off[v] + d
	}
	next := make([]int32, n) // where each AS's next entry goes
	for _, s := range b.slots {
		if s != 0 {
			next[s&hiMask]++ // one more lower neighbor
		}
	}
	for v := range next {
		next[v] += g.off[v] // where v's higher part begins
	}
	for _, s := range b.slots {
		if s == 0 {
			continue
		}
		lo, hi, rel := int(s&pairMask>>31), int(s&hiMask), Rel(s>>relShift)
		g.nbrs[next[lo]] = Neighbor{AS: int32(hi), Rel: rel}
		next[lo]++
		g.goff[int(rel)*n+lo+1]++ // row lengths, summed into offsets below
		g.goff[int(rel.Invert())*n+hi+1]++
		if rel == Peer {
			g.peerLinks++
		} else {
			g.pcLinks++
		}
	}
	// Every lower part is complete once the walk reaches its AS, so next[v]
	// is where v's higher part begins in both walks.
	copy(next, g.off)
	for v := 0; v < n; v++ {
		for _, nb := range g.nbrs[next[v]:g.off[v+1]] {
			g.nbrs[next[nb.AS]] = Neighbor{AS: int32(v), Rel: nb.Rel.Invert()}
			next[nb.AS]++
		}
	}
	for v := 0; v < n; v++ {
		for _, nb := range g.nbrs[g.off[v]:next[v]] {
			g.nbrs[next[nb.AS]] = Neighbor{AS: int32(v), Rel: nb.Rel.Invert()}
			next[nb.AS]++
		}
	}
	for r := 0; r < 3*n; r++ {
		g.goff[r+1] += g.goff[r]
	}
	for v := 0; v < n; v++ {
		at := [3]int32{g.goff[v], g.goff[n+v], g.goff[2*n+v]} // v's next customer, peer and provider
		for _, nb := range g.Neighbors(v) {
			g.grp[at[nb.Rel]] = nb.AS
			at[nb.Rel]++
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

// providerOrder runs Kahn's algorithm over provider→customer edges, taking
// the lowest ready index first, over every AS but the stubs, which it then
// lists by index. It reports whether it listed every AS:
// an AS on a provider-customer cycle never has all of its providers listed.
// A stub has no customers, so no AS waits for it, and its providers are
// listed by the time the tail begins.
//
// A scan up the indices finds the ready ASes it has not passed yet; only
// those that become ready behind it wait in a heap, and they are all lower
// than anything the scan has still to find. Where every provider has a
// lower index than its customers the heap stays empty.
func (g *Graph) providerOrder() (order []int32, body int, acyclic bool) {
	n := g.N()
	unlisted := make([]int32, n) // providers of v not yet in order
	for v := range unlisted {
		unlisted[v] = int32(len(g.Providers(v)))
		if g.IsStub(v) {
			unlisted[v] = math.MaxInt32 // never ready: the tail lists it
		}
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
	body = len(order)
	for v := 0; v < n; v++ {
		if g.IsStub(v) {
			order = append(order, int32(v))
		}
	}
	return order, body, len(order) == n
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
