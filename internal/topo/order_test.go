package topo

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// customerless is Graph.IsStub restated from Neighbors: no neighbor is a
// customer.
func customerless(g *Graph, v int) bool {
	for _, nb := range g.Neighbors(v) {
		if nb.Rel == Customer {
			return false
		}
	}
	return true
}

// requireProviderOrder holds ProviderOrder to its contract: every AS
// appears exactly once, after all of its providers, at the position
// ProviderRanks gives it; and the order ends, from TailStart on, in a tail
// of stubs in ascending index.
func requireProviderOrder(tb testing.TB, g *Graph) {
	tb.Helper()
	order := g.ProviderOrder()
	if len(order) != g.N() {
		tb.Fatalf("ProviderOrder lists %d ASes, the graph has %d", len(order), g.N())
	}
	pos := make([]int, g.N())
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if v < 0 || int(v) >= g.N() || pos[v] >= 0 {
			tb.Fatalf("ProviderOrder[%d] = %d: outside the graph or listed twice", i, v)
		}
		pos[v] = i
	}
	if rank := g.ProviderRanks(); len(rank) != g.N() {
		tb.Fatalf("ProviderRanks has %d entries, the graph %d ASes", len(rank), g.N())
	}
	for v, r := range g.ProviderRanks() {
		if int(r) != pos[v] {
			tb.Fatalf("ProviderRanks[%d] = %d, but AS %d is at %d in ProviderOrder", v, r, v, pos[v])
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, p := range g.Providers(v) {
			if pos[p] > pos[v] {
				tb.Fatalf("AS %d comes at %d in ProviderOrder, before its provider %d at %d", v, pos[v], p, pos[p])
			}
		}
	}

	tail := g.TailStart()
	if tail < 0 || tail > g.N() {
		tb.Fatalf("TailStart = %d, outside [0, %d]", tail, g.N())
	}
	if stubs := order[tail:]; !slices.IsSorted(stubs) {
		tb.Fatalf("the tail of ProviderOrder does not ascend: %v", stubs)
	}
	for _, v := range order[tail:] {
		if !customerless(g, int(v)) {
			tb.Fatalf("AS %d in the tail of ProviderOrder has customers %v", v, g.Customers(int(v)))
		}
	}
}

// requireCustomerRanks holds CustomerRanks to its contract: for every rank
// r below TailStart, the ranks of Customers(ProviderOrder()[r]) that are
// below TailStart, ascending, in a row whose capacity is clipped; and
// CustomerSlots beside it: the AS's index in each such customer's
// Providers row.
func requireCustomerRanks(tb testing.TB, g *Graph) {
	tb.Helper()
	order, rank := g.ProviderOrder(), g.ProviderRanks()
	for r := 0; r < g.TailStart(); r++ {
		var want []int32
		for _, c := range g.Customers(int(order[r])) {
			if int(rank[c]) < g.TailStart() {
				want = append(want, rank[c])
			}
		}
		slices.Sort(want)
		got := g.CustomerRanks(r)
		if !slices.Equal(got, want) {
			tb.Fatalf("CustomerRanks(%d) of AS %d = %v, want %v (customers %v)", r, order[r], got, want, g.Customers(int(order[r])))
		}
		if cap(got) != len(got) {
			tb.Fatalf("CustomerRanks(%d): len %d, cap %d", r, len(got), cap(got))
		}
		slots := g.CustomerSlots(r)
		if len(slots) != len(got) || cap(slots) != len(slots) {
			tb.Fatalf("CustomerSlots(%d): len %d, cap %d, beside %d customer ranks", r, len(slots), cap(slots), len(got))
		}
		for i, rc := range got {
			if j := slices.Index(g.Providers(int(order[rc])), order[r]); int32(j) != slots[i] {
				tb.Fatalf("CustomerSlots(%d)[%d] = %d, but AS %d is at %d in customer %d's providers %v", r, i, slots[i], order[r], j, order[rc], g.Providers(int(order[rc])))
			}
		}
	}
}

// requireRankedProviders holds RankedProviders to its contract, recounted
// from Providers: for every rank r below TailStart, each provider of
// ProviderOrder()[r] with its rank, which is below TailStart, ascending by
// AS, in a row whose capacity is clipped.
func requireRankedProviders(tb testing.TB, g *Graph) {
	tb.Helper()
	order, rank := g.ProviderOrder(), g.ProviderRanks()
	for r := 0; r < g.TailStart(); r++ {
		var want []RankedAS
		for _, p := range g.Providers(int(order[r])) {
			if int(rank[p]) >= g.TailStart() {
				tb.Fatalf("provider %d of AS %d ranks %d, in the tail from %d", p, order[r], rank[p], g.TailStart())
			}
			want = append(want, RankedAS{Rank: rank[p], AS: p})
		}
		got := g.RankedProviders(r)
		if !slices.Equal(got, want) {
			tb.Fatalf("RankedProviders(%d) of AS %d = %v, want %v", r, order[r], got, want)
		}
		if cap(got) != len(got) {
			tb.Fatalf("RankedProviders(%d): len %d, cap %d", r, len(got), cap(got))
		}
	}
}

// lowestReadyFirst is the order Build promises, found the slow way: again
// and again, the lowest-indexed unlisted AS whose providers are all listed,
// passing over the stubs, which follow in index order.
func lowestReadyFirst(g *Graph) []int32 {
	listed := make([]bool, g.N())
	var stubs []int32
	for v := 0; v < g.N(); v++ {
		if customerless(g, v) {
			listed[v] = true // no AS has it for a provider
			stubs = append(stubs, int32(v))
		}
	}
	order := make([]int32, 0, g.N())
	for len(order)+len(stubs) < g.N() {
		for v := 0; v < g.N(); v++ {
			ready := !listed[v]
			for _, p := range g.Providers(v) {
				ready = ready && listed[p]
			}
			if ready {
				listed[v] = true
				order = append(order, int32(v))
				break
			}
		}
	}
	return append(order, stubs...)
}

// requireBuiltOrder is requireProviderOrder plus the rules of a graph Build
// made: the tail is every stub and nothing else, and of the other ASes
// ready to be listed the lowest index comes first.
func requireBuiltOrder(tb testing.TB, g *Graph) {
	tb.Helper()
	requireProviderOrder(tb, g)
	if want := lowestReadyFirst(g); !slices.Equal(g.ProviderOrder(), want) {
		tb.Fatalf("ProviderOrder is not lowest-ready-first with the stubs last:\n got %v\nwant %v", g.ProviderOrder(), want)
	}
	for _, v := range g.ProviderOrder()[:g.TailStart()] {
		if customerless(g, int(v)) {
			tb.Fatalf("AS %d, which has no customers, is listed before TailStart %d", v, g.TailStart())
		}
	}
}

// relabel rebuilds g through Builder with AS v renamed perm[v].
func relabel(tb testing.TB, g *Graph, perm []int) *Graph {
	tb.Helper()
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		for _, nb := range g.Neighbors(v) {
			switch {
			case nb.Rel == Customer:
				b.AddPC(perm[v], perm[nb.AS])
			case nb.Rel == Peer && int32(v) < nb.AS:
				b.AddPeer(perm[v], perm[nb.AS])
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestProviderOrder: the order is valid on every way a Graph is made —
// Generate, Parse, RemoveLinks and a Builder fed shuffled indices — Build
// lists the stubs last, by index, and of the rest the
// lowest ready index first, so the body ascends where every provider has a
// lower index than its customers; and Build still refuses a
// provider-customer cycle.
func TestProviderOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := Generate(GenConfig{N: 50 + rng.Intn(800), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		requireBuiltOrder(t, g)
		order := g.ProviderOrder()
		if tail := g.TailStart(); tail == 0 || tail == g.N() {
			t.Fatalf("seed %d: the tail starts at %d of %d ASes; the order has no body or no tail to test", seed, tail, g.N())
		}
		if body := order[:g.TailStart()]; !slices.IsSorted(body) {
			t.Fatalf("seed %d: the body of ProviderOrder does not ascend on a Generate graph: %v", seed, body)
		}

		var buf bytes.Buffer
		if err := Write(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		parsed, _, err := Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireBuiltOrder(t, parsed)

		var cut []LinkRef
		for k := 0; k < g.N()/5; k++ {
			if v := rng.Intn(g.N()); g.Degree(v) > 0 {
				cut = append(cut, LinkRef{A: v, B: int(g.Neighbors(v)[rng.Intn(g.Degree(v))].AS)})
			}
		}
		removed, err := RemoveLinks(g, cut)
		if err != nil {
			t.Fatal(err)
		}
		requireProviderOrder(t, removed)
		if removed.TailStart() != g.TailStart() {
			t.Fatalf("seed %d: RemoveLinks moved TailStart from %d to %d", seed, g.TailStart(), removed.TailStart())
		}

		shuffled := relabel(t, g, rng.Perm(g.N()))
		requireBuiltOrder(t, shuffled)
		if slices.Equal(shuffled.ProviderOrder(), g.ProviderOrder()) {
			t.Fatalf("seed %d: relabelled graph still has its source's order; the case tests nothing", seed)
		}
		// Labels reversed: every customer now comes before its providers.
		rev := make([]int, g.N())
		for v := range rev {
			rev[v] = g.N() - 1 - v
		}
		requireBuiltOrder(t, relabel(t, g, rev))
	}

	empty, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	requireProviderOrder(t, empty)

	// Stubs without providers too: 4 only peers, 5 has no link at all.
	small, err := NewBuilder(6).AddPC(0, 1).AddPC(0, 2).AddPC(3, 2).AddPC(3, 0).AddPeer(4, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	requireBuiltOrder(t, small)
	if !slices.Equal(small.ProviderOrder(), []int32{3, 0, 1, 2, 4, 5}) || small.TailStart() != 2 {
		t.Fatalf("order %v, tail from %d", small.ProviderOrder(), small.TailStart())
	}

	for _, b := range []*Builder{
		NewBuilder(3).AddPC(0, 1).AddPC(1, 2).AddPC(2, 0),
		NewBuilder(5).AddPC(0, 1).AddPC(1, 2).AddPC(2, 3).AddPC(3, 1).AddPeer(0, 4),
	} {
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted a provider-customer cycle")
		}
	}
}

// TestCustomerRanks: the rank-space customer and provider rows hold their
// contracts on every way a Graph is made — Generate, a Write/Parse round
// trip, a relabelling whose body does not ascend, so that ranks and indices
// disagree, and RemoveLinks cutting a provider-customer link between two
// ASes before the tail, a stub's provider link and a peer link, each of
// which must drop exactly the entries it names.
func TestCustomerRanks(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := Generate(GenConfig{N: 50 + rng.Intn(800), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		requireCustomerRanks(t, g)
		requireRankedProviders(t, g)

		var buf bytes.Buffer
		if err := Write(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		parsed, _, err := Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireCustomerRanks(t, parsed)
		requireRankedProviders(t, parsed)

		rev := make([]int, g.N())
		for v := range rev {
			rev[v] = g.N() - 1 - v
		}
		reversed := relabel(t, g, rev)
		if slices.IsSorted(reversed.ProviderOrder()[:reversed.TailStart()]) {
			t.Fatalf("seed %d: the relabelled body ascends; the case tests nothing", seed)
		}
		requireCustomerRanks(t, reversed)
		requireRankedProviders(t, reversed)

		for _, h := range []*Graph{g, reversed} {
			var body, stub, peer *LinkRef
			rank, tail := h.ProviderRanks(), int32(h.TailStart())
			for v := 0; v < h.N(); v++ {
				for _, c := range h.Customers(v) {
					if rank[c] < tail && body == nil {
						body = &LinkRef{A: v, B: int(c)}
					} else if rank[c] >= tail && stub == nil {
						stub = &LinkRef{A: int(c), B: v} // named from the customer's side
					}
				}
				if ps := h.Peers(v); len(ps) > 0 && peer == nil {
					peer = &LinkRef{A: v, B: int(ps[0])}
				}
			}
			if body == nil || stub == nil || peer == nil {
				t.Fatalf("seed %d: no body link %v, stub link %v or peer link %v to cut", seed, body, stub, peer)
			}
			for i, cut := range [][]LinkRef{{*body}, {*stub}, {*peer}, {*peer, *stub, *body}} {
				removed, err := RemoveLinks(h, cut)
				if err != nil {
					t.Fatal(err)
				}
				requireCustomerRanks(t, removed)
				requireRankedProviders(t, removed)
				p := int(rank[body.A])
				if got, was := len(removed.CustomerRanks(p)), len(h.CustomerRanks(p)); i == 0 && got != was-1 {
					t.Fatalf("seed %d: cutting %v left AS %d %d customer ranks of %d", seed, *body, body.A, got, was)
				}
				c := int(rank[body.B])
				if got, was := len(removed.RankedProviders(c)), len(h.RankedProviders(c)); i == 0 && got != was-1 {
					t.Fatalf("seed %d: cutting %v left AS %d %d ranked providers of %d", seed, *body, body.B, got, was)
				}
			}
		}
	}
}
