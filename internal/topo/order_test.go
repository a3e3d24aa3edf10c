package topo

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
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
// ProviderRanks gives it; the order ends in a tail of stubs cut into the
// runs StubRuns names, end to end, ascending by provider count and by index
// within a run; and StubProviders holds each stub's row where its run says,
// which is its providers, ascending, once the entries that name the stub
// itself (the providers RemoveLinks cut) are passed over.
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

	runs, rows := g.StubRuns(), g.StubProviders()
	if cap(runs) != len(runs) || cap(rows) != len(rows) {
		tb.Fatalf("StubRuns: len %d, cap %d; StubProviders: len %d, cap %d", len(runs), cap(runs), len(rows), cap(rows))
	}
	at, row := int32(g.N()), int32(0) // where the next run must start, in the order and in rows
	if len(runs) > 0 {
		at = runs[0].First
	}
	for i, r := range runs {
		if r.First != at || r.End <= r.First || r.Row != row || r.K < 0 || i > 0 && r.K <= runs[i-1].K {
			tb.Fatalf("StubRuns[%d] = %+v after %v: runs must be non-empty, end to end, ascending by K, rows in turn", i, r, runs[:i])
		}
		if stubs := order[r.First:r.End]; !slices.IsSorted(stubs) {
			tb.Fatalf("the run of %d-provider stubs does not ascend: %v", r.K, stubs)
		}
		for j, v := range order[r.First:r.End] {
			if !customerless(g, int(v)) {
				tb.Fatalf("AS %d in the tail of ProviderOrder has customers %v", v, g.Customers(int(v)))
			}
			stubRow := rows[r.Row+int32(j)*r.K : r.Row+int32(j+1)*r.K]
			kept := slices.DeleteFunc(slices.Clone(stubRow), func(p int32) bool { return p == v })
			if !slices.Equal(kept, g.Providers(int(v))) {
				tb.Fatalf("AS %d has providers %v, but its row in StubProviders is %v", v, g.Providers(int(v)), stubRow)
			}
		}
		at, row = r.End, r.Row+r.K*(r.End-r.First)
	}
	if int(at) != g.N() || int(row) != len(rows) {
		tb.Fatalf("StubRuns %v end at %d of %d ASes and %d of %d provider entries", runs, at, g.N(), row, len(rows))
	}
}

// lowestReadyFirst is the order Build promises, found the slow way: again
// and again, the lowest-indexed unlisted AS whose providers are all listed,
// passing over the stubs, which follow by provider count and then index.
func lowestReadyFirst(g *Graph) []int32 {
	listed := make([]bool, g.N())
	var stubs []int32
	for v := 0; v < g.N(); v++ {
		if customerless(g, v) {
			listed[v] = true // no AS has it for a provider
			stubs = append(stubs, int32(v))
		}
	}
	sort.SliceStable(stubs, func(i, j int) bool { return len(g.Providers(int(stubs[i]))) < len(g.Providers(int(stubs[j]))) })
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
// made: the tail is every stub and nothing else, of the other ASes ready to
// be listed the lowest index comes first, and no row names its own stub.
func requireBuiltOrder(tb testing.TB, g *Graph) {
	tb.Helper()
	requireProviderOrder(tb, g)
	if want := lowestReadyFirst(g); !slices.Equal(g.ProviderOrder(), want) {
		tb.Fatalf("ProviderOrder is not lowest-ready-first with the stubs last:\n got %v\nwant %v", g.ProviderOrder(), want)
	}
	var want []int32
	for _, v := range g.ProviderOrder()[g.tailStart():] {
		want = append(want, g.Providers(int(v))...)
	}
	if !slices.Equal(g.StubProviders(), want) {
		tb.Fatalf("StubProviders is\n %v, the stubs' providers in tail order\n %v", g.StubProviders(), want)
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
// lists the stubs last, by provider count and index, and of the rest the
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
		order, runs := g.ProviderOrder(), g.StubRuns()
		sole := slices.IndexFunc(runs, func(r StubRun) bool { return r.K == 1 })
		if tail := g.tailStart(); tail == 0 || sole < 0 || runs[len(runs)-1].K < 2 {
			t.Fatalf("seed %d: the tail starts at %d of %d ASes, in runs %v; the order has no body, or no tail of one- and multi-provider stubs, to test", seed, tail, g.N(), runs)
		}
		if body := order[:g.tailStart()]; !slices.IsSorted(body) {
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
	wantRuns := []StubRun{{First: 2, End: 4, K: 0, Row: 0}, {First: 4, End: 5, K: 1, Row: 0}, {First: 5, End: 6, K: 2, Row: 1}}
	if !slices.Equal(small.ProviderOrder(), []int32{3, 0, 4, 5, 1, 2}) || !slices.Equal(small.StubRuns(), wantRuns) ||
		!slices.Equal(small.StubProviders(), []int32{0, 0, 3}) {
		t.Fatalf("order %v, runs %+v, rows %v", small.ProviderOrder(), small.StubRuns(), small.StubProviders())
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
