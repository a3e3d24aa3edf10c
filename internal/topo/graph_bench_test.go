package topo

import (
	"math/rand"
	"sort"
	"testing"
)

// relLinear is the pre-CSR O(degree) relationship lookup, kept here as the
// baseline the sorted-adjacency binary search is benchmarked against.
func relLinear(g *Graph, v, u int) (Rel, bool) {
	for _, nb := range g.Neighbors(v) {
		if nb.AS == int32(u) {
			return nb.Rel, true
		}
	}
	return 0, false
}

// hubGraph generates an Internet-like topology and returns it along with
// its highest-degree AS — a tier-1 hub with thousands of neighbors.
func hubGraph(tb testing.TB, n int) (*Graph, int) {
	tb.Helper()
	g, err := Generate(GenConfig{N: n, Seed: 7})
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return g, hub
}

func BenchmarkGraphRelHub(b *testing.B) {
	g, hub := hubGraph(b, 20000)
	b.Logf("hub degree: %d", g.Degree(hub))
	nbrs := g.Neighbors(hub)
	queries := make([]int, 1024)
	rng := rand.New(rand.NewSource(11))
	for i := range queries {
		queries[i] = int(nbrs[rng.Intn(len(nbrs))].AS)
	}
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := g.Rel(hub, queries[i%len(queries)]); !ok {
				b.Fatal("missing link")
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := relLinear(g, hub, queries[i%len(queries)]); !ok {
				b.Fatal("missing link")
			}
		}
	})
}

func BenchmarkGraphRemoveLinksScale(b *testing.B) {
	g, hub := hubGraph(b, 20000)
	nbrs := g.Neighbors(hub)
	cut := []LinkRef{{A: hub, B: int(nbrs[0].AS)}, {A: hub, B: int(nbrs[len(nbrs)/2].AS)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RemoveLinks(g, cut); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGraphRelMatchesLinear(t *testing.T) {
	g, hub := hubGraph(t, 2000)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		v, u := rng.Intn(g.N()), rng.Intn(g.N())
		gotRel, gotOK := g.Rel(v, u)
		wantRel, wantOK := relLinear(g, v, u)
		if gotRel != wantRel || gotOK != wantOK {
			t.Fatalf("Rel(%d,%d) = (%v,%v), linear scan says (%v,%v)", v, u, gotRel, gotOK, wantRel, wantOK)
		}
	}
	// Every hub neighbor must resolve.
	for _, nb := range g.Neighbors(hub) {
		r, ok := g.Rel(hub, int(nb.AS))
		if !ok || r != nb.Rel {
			t.Fatalf("Rel(hub,%d) = (%v,%v), want (%v,true)", nb.AS, r, ok, nb.Rel)
		}
	}
}

func TestGraphAdjacencySorted(t *testing.T) {
	g, _ := hubGraph(t, 2000)
	for v := 0; v < g.N(); v++ {
		list := g.Neighbors(v)
		if !sort.SliceIsSorted(list, func(i, j int) bool { return list[i].AS < list[j].AS }) {
			t.Fatalf("adjacency of AS %d not sorted", v)
		}
	}
}

func TestGraphMemStats(t *testing.T) {
	g, err := NewBuilder(4).AddPC(0, 1).AddPC(0, 2).AddPeer(1, 2).AddPC(1, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	m := g.MemStats()
	if m.Nodes != 4 || m.Links != 4 {
		t.Fatalf("MemStats nodes/links = %d/%d, want 4/4", m.Nodes, m.Links)
	}
	if m.OffsetBytes <= 0 || m.NeighborBytes <= 0 || m.GroupedBytes <= 0 || m.OrderBytes != 4*4 {
		t.Fatalf("MemStats byte accounting implausible: %+v", m)
	}
	if m.TotalBytes != m.OffsetBytes+m.NeighborBytes+m.GroupedBytes+m.OrderBytes {
		t.Fatalf("TotalBytes %d != %d + %d + %d + %d", m.TotalBytes, m.OffsetBytes, m.NeighborBytes, m.GroupedBytes, m.OrderBytes)
	}
	if m.BytesPerLink <= 0 {
		t.Fatalf("BytesPerLink = %v, want > 0", m.BytesPerLink)
	}
}

func TestBuilderHasLinkConstantTime(t *testing.T) {
	b := NewBuilder(10)
	b.AddPC(0, 1).AddPeer(1, 2)
	if !b.HasLink(0, 1) || !b.HasLink(1, 0) {
		t.Fatal("HasLink should see the PC link from both sides")
	}
	if !b.HasLink(2, 1) {
		t.Fatal("HasLink should see the peer link")
	}
	if b.HasLink(0, 2) || b.HasLink(-1, 3) || b.HasLink(3, 99) {
		t.Fatal("HasLink false positives")
	}
	if _, err := b.AddPC(1, 0).Build(); err == nil {
		t.Fatal("duplicate link (reversed endpoints) should fail Build")
	}
}
