package topo

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// requireGroupedMatchesNeighbors holds the relationship-grouped view to the
// adjacency it indexes: for every AS, Customers, Peers and Providers (and
// Related, which picks among them) are exactly the Rel-filtered Neighbors,
// in Neighbors' (ascending) order.
func requireGroupedMatchesNeighbors(tb testing.TB, g *Graph) {
	tb.Helper()
	for v := 0; v < g.N(); v++ {
		var want [3][]int32
		for _, nb := range g.Neighbors(v) {
			want[nb.Rel] = append(want[nb.Rel], nb.AS)
		}
		requireGroup(tb, v, Customer, g.Customers(v), want[Customer])
		requireGroup(tb, v, Peer, g.Peers(v), want[Peer])
		requireGroup(tb, v, Provider, g.Providers(v), want[Provider])
		for _, rel := range []Rel{Customer, Peer, Provider} {
			requireGroup(tb, v, rel, g.Related(v, rel), want[rel])
		}
	}
}

func requireGroup(tb testing.TB, v int, rel Rel, got, want []int32) {
	tb.Helper()
	if !slices.Equal(got, want) {
		tb.Fatalf("AS %d: %vs are %v in the grouped view, %v in Neighbors", v, rel, got, want)
	}
	if !slices.IsSorted(got) {
		tb.Fatalf("AS %d: %vs %v are not ascending", v, rel, got)
	}
}

// requireSameGraph compares everything a Graph exposes, except that of the
// provider-first order it asks only validity: RemoveLinks keeps its
// source's order, which a rebuild need not reproduce.
func requireSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.PCLinks() != want.PCLinks() || got.PeerLinks() != want.PeerLinks() {
		t.Fatalf("n=%d pc=%d peer=%d, want n=%d pc=%d peer=%d",
			got.N(), got.PCLinks(), got.PeerLinks(), want.N(), want.PCLinks(), want.PeerLinks())
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
	requireGroupedMatchesNeighbors(t, got)
	requireProviderOrder(t, got)
}

func TestGroupedViewMatchesNeighbors(t *testing.T) {
	requireGroupedMatchesNeighbors(t, triangle(t))
	empty, err := NewBuilder(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	requireGroupedMatchesNeighbors(t, empty)
	for _, n := range []int{50, 2000} {
		g, err := Generate(GenConfig{N: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		requireGroupedMatchesNeighbors(t, g)

		var buf bytes.Buffer
		if err := Write(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		parsed, _, err := Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireGroupedMatchesNeighbors(t, parsed)
	}
}

// TestRemoveLinksMatchesRebuild holds RemoveLinks, which edits the packed
// arrays, to a graph built from the surviving links through Builder, over
// removal sets that repeat links, name them in both endpoint orders, and
// name links that do not exist, ASes that do not exist and self-links.
func TestRemoveLinksMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(300)
		g, err := Generate(GenConfig{N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var remove []LinkRef
		gone := map[uint64]bool{}
		for k := rng.Intn(40); k > 0; k-- {
			v := rng.Intn(n)
			var l LinkRef
			switch rng.Intn(8) {
			case 0: // usually absent
				l = LinkRef{A: v, B: rng.Intn(n)}
			case 1:
				l = LinkRef{A: v, B: n + rng.Intn(3)}
			case 2:
				l = LinkRef{A: -1 - rng.Intn(3), B: v}
			case 3:
				l = LinkRef{A: v, B: v}
			case 4: // every link of one AS
				for _, nb := range g.Neighbors(v) {
					remove = append(remove, LinkRef{A: int(nb.AS), B: v})
					gone[linkKey(v, int(nb.AS))] = true
				}
				continue
			default:
				if g.Degree(v) == 0 {
					continue
				}
				l = LinkRef{A: v, B: int(g.Neighbors(v)[rng.Intn(g.Degree(v))].AS)}
			}
			remove = append(remove, l)
			if rng.Intn(3) == 0 {
				remove = append(remove, LinkRef{A: l.B, B: l.A}, l)
			}
			if g.HasLink(l.A, l.B) {
				gone[linkKey(l.A, l.B)] = true
			}
		}

		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			for _, nb := range g.Neighbors(v) {
				if gone[linkKey(v, int(nb.AS))] {
					continue
				}
				switch {
				case nb.Rel == Customer:
					b.AddPC(v, int(nb.AS))
				case nb.Rel == Peer && int32(v) < nb.AS:
					b.AddPeer(v, int(nb.AS))
				}
			}
		}
		want, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		before, err := RemoveLinks(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RemoveLinks(g, remove)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, got, want)
		requireSameGraph(t, g, before) // the source is only read

		// "Shares no state": even a copy that cuts nothing has arrays of
		// its own.
		if unsafe.SliceData(before.off) == unsafe.SliceData(g.off) ||
			unsafe.SliceData(before.nbrs) == unsafe.SliceData(g.nbrs) ||
			unsafe.SliceData(before.goff) == unsafe.SliceData(g.goff) ||
			unsafe.SliceData(before.grp) == unsafe.SliceData(g.grp) ||
			unsafe.SliceData(before.order) == unsafe.SliceData(g.order) {
			t.Fatal("RemoveLinks returned a graph that shares an array with its source")
		}
	}
}

// TestAccessorsClipCapacity: every row an accessor hands out, and the
// provider-first order, ends at its capacity, so an append through it has
// to reallocate. With spare capacity the append would write the next AS's
// row of the shared arena; here appending to every row of every AS, and to
// the order, leaves the graph as it was.
func TestAccessorsClipCapacity(t *testing.T) {
	g, err := Generate(GenConfig{N: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := Fingerprint(g)
	for v := 0; v < g.N(); v++ {
		if nb := g.Neighbors(v); cap(nb) != len(nb) {
			t.Fatalf("Neighbors(%d): len %d, cap %d", v, len(nb), cap(nb))
		}
		_ = append(g.Neighbors(v), Neighbor{AS: -1})
		rows := map[string][]int32{
			"Customers": g.Customers(v), "Peers": g.Peers(v), "Providers": g.Providers(v),
			"Related(Customer)": g.Related(v, Customer), "Related(Peer)": g.Related(v, Peer), "Related(Provider)": g.Related(v, Provider),
		}
		for name, row := range rows {
			if cap(row) != len(row) {
				t.Fatalf("%s(%d): len %d, cap %d", name, v, len(row), cap(row))
			}
			_ = append(row, -1)
		}
	}
	if order := g.ProviderOrder(); cap(order) != len(order) {
		t.Fatalf("ProviderOrder: len %d, cap %d", len(order), cap(order))
	}
	_ = append(g.ProviderOrder(), -1)
	if Fingerprint(g) != want {
		t.Fatal("appending through the accessors wrote the graph's arrays")
	}
}

// TestRelOutsideGraph: a pair with an endpoint outside [0, N), in either
// position, names no link. The first endpoint used to index unchecked.
func TestRelOutsideGraph(t *testing.T) {
	g := triangle(t)
	for _, l := range [][2]int{{9999, 0}, {0, 9999}, {-1, 0}, {0, -1}, {4, 0}, {0, 4}, {-5, 9999}, {2, 2}} {
		if rel, ok := g.Rel(l[0], l[1]); ok || rel != 0 {
			t.Errorf("Rel(%d, %d) = (%v, %v), want (0, false)", l[0], l[1], rel, ok)
		}
		if g.HasLink(l[0], l[1]) || g.IsCustomer(l[0], l[1]) {
			t.Errorf("HasLink/IsCustomer(%d, %d) true for a pair that names no link", l[0], l[1])
		}
	}
}
