package topo

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// requireProviderOrder holds ProviderOrder to its contract: every AS
// appears exactly once, after all of its providers, at the position
// ProviderRanks gives it.
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
}

// lowestReadyFirst is the order Build promises, found the slow way: again
// and again, the lowest-indexed unlisted AS whose providers are all listed.
func lowestReadyFirst(g *Graph) []int32 {
	listed := make([]bool, g.N())
	order := make([]int32, 0, g.N())
	for len(order) < g.N() {
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
	return order
}

// requireBuiltOrder is requireProviderOrder plus the tie rule of a graph
// Build made: of the ASes ready to be listed, the lowest index comes first.
func requireBuiltOrder(tb testing.TB, g *Graph) {
	tb.Helper()
	requireProviderOrder(tb, g)
	if want := lowestReadyFirst(g); !slices.Equal(g.ProviderOrder(), want) {
		tb.Fatalf("ProviderOrder is not lowest-ready-first:\n got %v\nwant %v", g.ProviderOrder(), want)
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
// lists the lowest ready index first, which is the identity where every
// provider has a lower index than its customers, and Build still refuses a
// provider-customer cycle.
func TestProviderOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := Generate(GenConfig{N: 50 + rng.Intn(800), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		requireBuiltOrder(t, g)
		for i, v := range g.ProviderOrder() {
			if int(v) != i {
				t.Fatalf("seed %d: ProviderOrder[%d] = %d on a Generate graph, want the identity", seed, i, v)
			}
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
			t.Fatalf("seed %d: relabelled graph still has the identity order; the case tests nothing", seed)
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

	for _, b := range []*Builder{
		NewBuilder(3).AddPC(0, 1).AddPC(1, 2).AddPC(2, 0),
		NewBuilder(5).AddPC(0, 1).AddPC(1, 2).AddPC(2, 3).AddPC(3, 1).AddPeer(0, 4),
	} {
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted a provider-customer cycle")
		}
	}
}
