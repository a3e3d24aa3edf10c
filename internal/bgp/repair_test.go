package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/topo"
)

// repairOnce runs one repair the way Table.recompute does and reports how
// many ASes its phase-3 sweep visited. A nil result is a fallback.
func repairOnce(g *topo.Graph, failed []topo.LinkRef, old *Dest, a, b int, up bool) (*Dest, int) {
	set := make(map[topo.LinkRef]bool, len(failed))
	for _, l := range failed {
		set[normLinkRef(l.A, l.B)] = true
	}
	sc := repairPool.Get().(*repairScratch)
	defer repairPool.Put(sc)
	var cut cutRows
	cut.reset(g, set)
	d := sc.repair(g, &cut, old, a, b, up)
	for i := range sc.visit {
		if sc.visit[i] != 0 || sc.full[i] != 0 {
			panic(fmt.Sprintf("repair left sweep marks set at ranks %d-%d", 64*i, 64*i+63))
		}
	}
	return d, sc.visits
}

// TestCutRowsMatchRemoveLinks: an endpoint's rows without the neighbours
// it lost are its rows in the graph RemoveLinks makes of the same failures
// — Customers, Peers, Providers and, for an AS before the tail, its cut
// CustomerRanks — and every other AS has lost none.
func TestCutRowsMatchRemoveLinks(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := topo.Generate(topo.GenConfig{N: 200 + rng.Intn(400), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 0 {
			g = shuffled(t, g, rng)
		}
		rank := g.ProviderRanks()
		// The hub's links to a customer with customers of its own and to
		// a stub, and random others.
		hub := busiest(g, 1)[0]
		var failed []topo.LinkRef
		for _, stub := range []bool{false, true} {
			if i := slices.IndexFunc(g.Customers(hub), func(c int32) bool { return int(rank[c]) >= g.TailStart() == stub }); i >= 0 {
				failed = append(failed, normLinkRef(hub, int(g.Customers(hub)[i])))
			}
		}
		if len(failed) < 2 {
			t.Fatalf("seed %d: hub %d lacks a customer with customers or a stub customer", seed, hub)
		}
		all := linksOf(g)
		for len(failed) < 12 {
			failed = append(failed, all[rng.Intn(len(all))])
		}
		set := make(map[topo.LinkRef]bool, len(failed))
		for _, l := range failed {
			set[normLinkRef(l.A, l.B)] = true
		}
		var cut cutRows
		cut.reset(g, set)
		want := mustCut(t, g, failed)
		for v := int32(0); int(v) < g.N(); v++ {
			i := cut.of(v)
			if i < 0 {
				if slices.ContainsFunc(failed, func(l topo.LinkRef) bool { return l.A == int(v) || l.B == int(v) }) {
					t.Fatalf("seed %d: AS %d lost a link and has no cut rows", seed, v)
				}
				continue
			}
			var wantRanks []int32
			if int(rank[v]) < g.TailStart() {
				wantRanks = want.CustomerRanks(int(rank[v]))
			}
			if !slices.Equal(cut.ranks[i], wantRanks) {
				t.Fatalf("seed %d: AS %d's cut rank row is %v, the cut graph's %v", seed, v, cut.ranks[i], wantRanks)
			}
			for _, rel := range []topo.Rel{topo.Customer, topo.Peer, topo.Provider} {
				var kept []int32
				for _, u := range g.Related(int(v), rel) {
					if !slices.Contains(cut.lostBy(v), u) {
						kept = append(kept, u)
					}
				}
				if w := want.Related(int(v), rel); !slices.Equal(kept, w) {
					t.Fatalf("seed %d: AS %d's %v row without what it lost is %v, the cut graph's %v", seed, v, rel, kept, w)
				}
			}
		}
	}
}

// sameRoute reports whether a and b give v the same route: class, length
// and next hop, whatever graphs' rows their words index.
func sameRoute(a, b *Dest, v int) bool {
	return a.Class(v) == b.Class(v) && a.Hops(v) == b.Hops(v) && a.NextHop(v) == b.NextHop(v)
}

func mustCut(t testing.TB, g *topo.Graph, failed []topo.LinkRef) *topo.Graph {
	t.Helper()
	cut, err := topo.RemoveLinks(g, failed)
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

func linksOf(g *topo.Graph) []topo.LinkRef {
	var links []topo.LinkRef
	for v := 0; v < g.N(); v++ {
		for _, nb := range g.Neighbors(v) {
			if int32(v) < nb.AS {
				links = append(links, topo.LinkRef{A: v, B: int(nb.AS)})
			}
		}
	}
	return links
}

// busiest returns the k highest-degree ASes of g.
func busiest(g *topo.Graph, k int) []int {
	ases := allDests(g)
	sort.SliceStable(ases, func(i, j int) bool { return g.Degree(ases[i]) > g.Degree(ases[j]) })
	return ases[:min(k, len(ases))]
}

// hubPeers returns the highest-degree AS of g and its peers, largest first:
// the links the repo benchmark's route-repair schedule fails.
func hubPeers(g *topo.Graph) (hub int, peers []int) {
	hub = busiest(g, 1)[0]
	for _, u := range g.Peers(hub) {
		peers = append(peers, int(u))
	}
	sort.SliceStable(peers, func(i, j int) bool { return g.Degree(peers[i]) > g.Degree(peers[j]) })
	return hub, peers
}

// repairTally counts what checkRepairCase saw, and how many of the
// toggled links were stub peer and stub provider links.
type repairTally struct {
	cases, changed, fallbacks, visits int
	stubLinks                         [2]int
}

func (r *repairTally) add(o repairTally) {
	r.cases += o.cases
	r.changed += o.changed
	r.fallbacks += o.fallbacks
	r.visits += o.visits
	r.stubLinks[0] += o.stubLinks[0]
	r.stubLinks[1] += o.stubLinks[1]
}

// checkRepairCase pushes one (graph, background failures, toggled link,
// destination) quadruple through repair in both directions and compares
// with Compute on the two cut graphs.

func checkRepairCase(t *testing.T, g *topo.Graph, bg []topo.LinkRef, l topo.LinkRef, with, without *Dest, tally *repairTally) {
	t.Helper()
	all := append(slices.Clone(bg), l)
	for _, dir := range []struct {
		up        bool
		failed    []topo.LinkRef
		old, want *Dest
	}{
		{false, all, with, without},
		{true, bg, without, with},
	} {
		saved := slices.Clone(dir.old.packed)
		got, visits := repairOnce(g, dir.failed, dir.old, l.A, l.B, dir.up)
		tally.cases++
		if !slices.Equal(saved, dir.old.packed) {
			t.Fatalf("N=%d bg=%v link=%v up=%v dst=%d: repair wrote into the old table", g.N(), bg, l, dir.up, dir.old.Dst())
		}
		if got == nil {
			tally.fallbacks++
			continue
		}
		if got == dir.old || unsafe.SliceData(got.packed) == unsafe.SliceData(dir.old.packed) {
			t.Fatalf("N=%d link=%v up=%v dst=%d: repair returned the old array", g.N(), l, dir.up, dir.old.Dst())
		}
		if !got.Equal(dir.want) {
			v := 0
			for v+1 < g.N() && sameRoute(got, dir.want, v) {
				v++
			}
			t.Fatalf("N=%d bg=%v link=%v up=%v dst=%d: repair differs from Compute at AS %d: got %s/%d via %d, want %s/%d via %d (old %s/%d via %d)",
				g.N(), bg, l, dir.up, dir.old.Dst(), v,
				got.Class(v), got.Hops(v), got.NextHop(v),
				dir.want.Class(v), dir.want.Hops(v), dir.want.NextHop(v),
				dir.old.Class(v), dir.old.Hops(v), dir.old.NextHop(v))
		}
		if !dir.old.Equal(dir.want) {
			tally.changed++
		}
		tally.visits += visits
	}
}

// repairCases toggles `links` random links of g, each on top of 0–3
// background failures, and checks `dests` destinations for each.
func repairCases(t *testing.T, g *topo.Graph, rng *rand.Rand, links, dests int, tally *repairTally) {
	t.Helper()
	all := linksOf(g)
	hubs := busiest(g, 5)
	stubs := g.ProviderOrder()[g.TailStart():]
	for k := 0; k < links; k++ {
		// Half the toggled links hang off one of the busiest ASes: those
		// carry the large subtrees. A quarter are a stub's link to one of
		// its providers or peers, named from either end: repair keeps the
		// words of stubs cut off from some of their links on the side.
		l := all[rng.Intn(len(all))]
		switch {
		case k%2 == 0:
			hub := hubs[rng.Intn(len(hubs))]
			nb := g.Neighbors(hub)
			l = normLinkRef(hub, int(nb[rng.Intn(len(nb))].AS))
		case k%4 == 1 && len(stubs) > 0:
			v := int(stubs[rng.Intn(len(stubs))])
			if nb := g.Neighbors(v); len(nb) > 0 {
				u := nb[rng.Intn(len(nb))]
				tally.stubLinks[u.Rel-topo.Peer]++
				l = topo.LinkRef{A: v, B: int(u.AS)}
				if rng.Intn(2) == 0 {
					l = topo.LinkRef{A: int(u.AS), B: v}
				}
			}
		}
		var bg []topo.LinkRef
		for len(bg) < k%4 {
			if x := all[rng.Intn(len(all))]; x != normLinkRef(l.A, l.B) && !slices.Contains(bg, x) {
				bg = append(bg, x)
			}
		}
		gWith := mustCut(t, g, bg)
		gWithout := mustCut(t, g, append(slices.Clone(bg), l))
		for _, i := range rng.Perm(g.N())[:dests] {
			dst := i
			// The link's own endpoints are the destinations it matters
			// most to.
			if i%16 == 0 {
				dst = l.A
			} else if i%16 == 1 {
				dst = l.B
			}
			checkRepairCase(t, g, bg, l, Compute(gWith, dst), Compute(gWithout, dst), tally)
		}
	}
}

// TestRepairMatchesCompute is the differential test of the region-local
// repair: over generated graphs of four sizes, a random link is toggled on
// top of 0–3 background failures and every sampled destination — dirty or
// clean — is pushed through repair in both directions. The result must be
// Compute's on the cut graph, word for word. Every graph is also run with
// its ASes relabelled at random: a generated graph numbers every provider
// below its customers, so index order is a provider-first order there, and
// only on a relabelled graph would a sweep in index order be caught.
func TestRepairMatchesCompute(t *testing.T) {
	sizes := []struct{ n, seeds, links, dests int }{
		{30, 30, 24, 30},
		{60, 30, 24, 60},
		{400, 30, 12, 80},
		{3000, 30, 4, 40},
	}
	if testing.Short() {
		sizes = []struct{ n, seeds, links, dests int }{{30, 6, 12, 30}, {60, 6, 12, 60}, {400, 4, 6, 40}}
	}
	// Each (size, seed) case runs as a parallel subtest with its own rng
	// and tally; the tallies are merged per size once every case is done.
	var mu sync.Mutex
	tallies := make([]repairTally, len(sizes))
	t.Run("cases", func(t *testing.T) {
		for i, sz := range sizes {
			for seed := int64(1); seed <= int64(sz.seeds); seed++ {
				t.Run(fmt.Sprintf("N=%d/seed=%d", sz.n, seed), func(t *testing.T) {
					t.Parallel()
					g, err := topo.Generate(topo.GenConfig{N: sz.n, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					var tally repairTally
					rng := rand.New(rand.NewSource(seed*1000 + int64(sz.n)))
					repairCases(t, g, rng, sz.links, sz.dests, &tally)
					repairCases(t, shuffled(t, g, rng), rng, sz.links, sz.dests, &tally)
					mu.Lock()
					tallies[i].add(tally)
					mu.Unlock()
				})
			}
		}
	})
	var total repairTally
	for i, sz := range sizes {
		tally := tallies[i]
		t.Logf("N=%d: %d cases, %d changed the table, %.2f ASes swept a case, %d fallbacks",
			sz.n, tally.cases, tally.changed, float64(tally.visits)/float64(tally.cases), tally.fallbacks)
		if tally.changed < tally.cases/20 {
			t.Errorf("N=%d: only %d of %d cases changed the table", sz.n, tally.changed, tally.cases)
		}
		total.add(tally)
	}
	if !testing.Short() && total.cases < 100000 {
		t.Errorf("%d cases, want at least 100000", total.cases)
	}
	if total.stubLinks[0] == 0 || total.stubLinks[1] == 0 {
		t.Errorf("%d stub peer links and %d stub provider links toggled: the cases do not test both", total.stubLinks[0], total.stubLinks[1])
	}
}

// trapTopology is the smallest graph with both traps in it. Destination 0
// hangs under the customer chain 1 > 4 > 5 > 6 > 0 and, two hops away, under
// 2, which peers with 1. With link 1-4 up, AS 1 holds a 4-hop customer
// route; with it down, a 2-hop peer route through 2. AS 3 buys transit from
// 1 and from 7, a customer of 2.
func trapTopology(t testing.TB) *topo.Graph {
	t.Helper()
	g, err := topo.NewBuilder(8).
		AddPC(1, 4).AddPC(4, 5).AddPC(5, 6).AddPC(6, 0).
		AddPC(2, 0).AddPeer(1, 2).
		AddPC(1, 3).AddPC(7, 3).AddPC(2, 7).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRepairLinkDownShortensRouteOutsideRegion: when link 1-4 fails only
// AS 1 routed over it, so the region is {1}: AS 3 went through 7 (3 hops;
// through 1 it would have been 5). AS 1 falls back to its peer route and
// now offers 3 a 3-hop provider route with the lower next hop — a word
// outside the region has to change. "An AS outside the subtree keeps its
// route" is false.
func TestRepairLinkDownShortensRouteOutsideRegion(t *testing.T) {
	g := trapTopology(t)
	l := topo.LinkRef{A: 1, B: 4}
	old, want := Compute(g, 0), Compute(mustCut(t, g, []topo.LinkRef{l}), 0)
	if old.NextHop(3) != 7 || want.NextHop(3) != 1 || want.Hops(3) != 3 {
		t.Fatalf("the topology no longer sets the trap: AS 3 went via %d, goes via %d in %d hops", old.NextHop(3), want.NextHop(3), want.Hops(3))
	}
	got, _ := repairOnce(g, []topo.LinkRef{l}, old, 1, 4, false)
	if got == nil || !got.Equal(want) {
		t.Fatalf("repair after LinkDown(1,4) differs from Compute: AS 3 via %d", got.NextHop(3))
	}
}

// TestRepairLinkDownCounterexampleN3000 is the case that first refuted the
// lemma, on a generated graph: an AS outside the failed link's subtree ends
// up with a shorter provider route.
func TestRepairLinkDownCounterexampleN3000(t *testing.T) {
	cfg := topo.PaperScaleConfig(9)
	cfg.N = 3000
	g, err := topo.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := topo.LinkRef{A: 12, B: 234}
	const dst = 1572
	old, want := Compute(g, dst), Compute(mustCut(t, g, []topo.LinkRef{l}), dst)
	got, _ := repairOnce(g, []topo.LinkRef{l}, old, l.A, l.B, false)
	if got == nil || !got.Equal(want) {
		t.Fatal("repair after LinkDown(234,12) differs from Compute for destination 1572")
	}
	// The point of the case: some AS whose old route avoided the link
	// changed its word all the same.
	child := l.A
	if old.NextHop(l.B) == l.A {
		child = l.B
	}
	outside := 0
	for v := 0; v < g.N(); v++ {
		if old.word(v) != want.word(v) && !old.onBestPath(v, child) {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("no AS outside the subtree changed: the case no longer refutes the lemma")
	}
}

// TestRepairLinkUpClassUpgradeOverLongerPath is the mirror trap: when link
// 1-4 returns, AS 1 swaps its 2-hop peer route for a 4-hop customer route,
// and AS 3, which was using the short one, must move to 7 although no offer
// it gets improves on the word it holds.
func TestRepairLinkUpClassUpgradeOverLongerPath(t *testing.T) {
	g := trapTopology(t)
	l := topo.LinkRef{A: 1, B: 4}
	old, want := Compute(mustCut(t, g, []topo.LinkRef{l}), 0), Compute(g, 0)
	if old.Class(1) != ClassPeer || want.Class(1) != ClassCustomer || want.Hops(1) <= old.Hops(1) || old.NextHop(3) != 1 || want.NextHop(3) != 7 {
		t.Fatal("the topology no longer sets the trap")
	}
	got, _ := repairOnce(g, nil, old, 1, 4, true)
	if got == nil || !got.Equal(want) {
		t.Fatalf("repair after LinkUp(1,4) differs from Compute: AS 3 %s/%d via %d, want %d hops via %d",
			got.Class(3), got.Hops(3), got.NextHop(3), want.Hops(3), want.NextHop(3))
	}
}

// TestLinkDownNeverImprovesClass is the class floor repair applies on
// LinkDown, checked on Compute itself: removing a link only shrinks
// customer cones, so over generated graphs, random links on top of 0–3
// background failures, and every destination, no AS holds a better class
// with the link down than with it up.
func TestLinkDownNeverImprovesClass(t *testing.T) {
	sizes := []struct{ n, seeds, links int }{{30, 10, 12}, {60, 10, 12}, {400, 6, 6}}
	if testing.Short() {
		sizes = sizes[:2]
	}
	cases := 0
	for _, sz := range sizes {
		for seed := int64(1); seed <= int64(sz.seeds); seed++ {
			g, err := topo.Generate(topo.GenConfig{N: sz.n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			links := linksOf(g)
			for k := 0; k < sz.links; k++ {
				var bg []topo.LinkRef
				for len(bg) < k%4 {
					bg = append(bg, links[rng.Intn(len(links))])
				}
				l := links[rng.Intn(len(links))]
				gWith, gWithout := mustCut(t, g, bg), mustCut(t, g, append(slices.Clone(bg), l))
				for dst := 0; dst < g.N(); dst++ {
					with, without := Compute(gWith, dst), Compute(gWithout, dst)
					for v := 0; v < g.N(); v++ {
						if without.Class(v) < with.Class(v) {
							t.Fatalf("N=%d seed=%d bg=%v link=%v dst=%d: AS %d goes from %v to %v when the link goes down",
								sz.n, seed, bg, l, dst, v, with.Class(v), without.Class(v))
						}
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d (graph, link, destination) cases", cases)
}

// TestRepairLinkDownStopsWhereLengthHolds: AS 1 reaches destination 0
// through either of its customers 2 and 3, two hops each way, and takes 2,
// the lower. When link 1-2 fails it takes 3: the one word that changes.
// What AS 1 offers its provider 5 and its customer 4 keeps its length, so
// the sweep visits AS 1 and stops there.
func TestRepairLinkDownStopsWhereLengthHolds(t *testing.T) {
	g, err := topo.NewBuilder(6).
		AddPC(1, 2).AddPC(1, 3).AddPC(2, 0).AddPC(3, 0).
		AddPC(1, 4).AddPC(5, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	l := topo.LinkRef{A: 1, B: 2}
	old, want := Compute(g, 0), Compute(mustCut(t, g, []topo.LinkRef{l}), 0)
	var changed []int
	for v := 0; v < g.N(); v++ {
		if !sameRoute(old, want, v) {
			changed = append(changed, v)
		}
	}
	if old.NextHop(1) != 2 || !slices.Equal(changed, []int{1}) || want.NextHop(1) != 3 || want.Hops(1) != old.Hops(1) {
		t.Fatalf("the topology no longer sets the case: routes %v change, AS 1 goes via %d", changed, want.NextHop(1))
	}
	got, visits := repairOnce(g, []topo.LinkRef{l}, old, 1, 2, false)
	if got == nil || !got.Equal(want) {
		t.Fatal("repair after LinkDown(1,2) differs from Compute")
	}
	if visits != 1 {
		t.Fatalf("the sweep visited %d ASes, want 1 (AS 1, whose length held)", visits)
	}
}

// TestTableStubLosesItsOnlyProvider: stub 3 buys transit from AS 1 alone
// and peers with AS 2; stub 4 buys from 1 and 2. Cutting 3-1 leaves every
// stored word towards 0 as it was — no AS routes through a stub — and 3
// without a route: the repaired table keeps that in its side table, and so
// differs from the intact one on the same stored words. Towards 3, AS 1
// loses its customer route and the stored words change. Restoring the link
// empties the side tables and gives back the intact tables.
func TestTableStubLosesItsOnlyProvider(t *testing.T) {
	g, err := topo.NewBuilder(5).
		AddPC(0, 1).AddPC(0, 2).AddPC(1, 3).AddPeer(2, 3).AddPC(1, 4).AddPC(2, 4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(g, allDests(g), 0)
	intact := tab.Clone()
	if n := tab.LinkDown(3, 1); n == 0 {
		t.Fatal("LinkDown(3,1) dirtied no destination")
	}
	checkAgainstScratch(t, tab, "after LinkDown(3,1)")
	to0 := tab.Dest(0)
	if to0.Reachable(3) || len(to0.stubs) != 1 || !slices.Equal(to0.packed, intact.Dest(0).packed) || to0.Equal(intact.Dest(0)) {
		t.Fatalf("towards 0: AS 3 reachable %v, side table %v, stored words as intact %v", to0.Reachable(3), to0.stubs, slices.Equal(to0.packed, intact.Dest(0).packed))
	}
	if to3 := tab.Dest(3); to3.Class(1) == ClassCustomer || slices.Equal(to3.packed, intact.Dest(3).packed) {
		t.Fatalf("towards 3: AS 1 still holds a %v route over the cut link", to3.Class(1))
	}
	tab.LinkUp(1, 3)
	for _, dst := range tab.Dests() {
		if d := tab.Dest(dst); d.stubs != nil || !d.Equal(intact.Dest(dst)) {
			t.Fatalf("destination %d after LinkUp(1,3): side table %v, equal to the intact table %v", dst, d.stubs, d.Equal(intact.Dest(dst)))
		}
	}
}

// TestRepairBenchmarkLinks repairs every dirty destination of the repo
// benchmark's schedule — the hub's four largest peer links on the
// 44,340-AS graph, 128 destinations — and compares each with Compute.
func TestRepairBenchmarkLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 44,340-AS graph")
	}
	g, err := topo.Generate(topo.PaperScaleConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	hub, peers := hubPeers(g)
	dirty := 0
	for _, u := range peers[:4] {
		l := normLinkRef(hub, u)
		cut := mustCut(t, g, []topo.LinkRef{l})
		for k := 0; k < 128; k++ {
			dst := k * g.N() / 128
			with := Compute(g, dst)
			if !with.usesLink(hub, u) {
				continue
			}
			dirty++
			var tally repairTally
			checkRepairCase(t, g, nil, l, with, Compute(cut, dst), &tally)
			if tally.fallbacks != 0 {
				t.Errorf("link %v dst %d: %d of 2 repairs fell back to Compute", l, dst, tally.fallbacks)
			}
		}
	}
	if dirty < 100 {
		t.Fatalf("%d dirty (link, destination) pairs, want the benchmark's ~113", dirty)
	}
}

// TestRepairFallbackOnLongPaths: routes of 63 hops and more keep their
// length outside the word, where repair's comparisons cannot see it. A
// table that holds one, or would after the event, goes through Compute
// instead, and the Table counts it.
func TestRepairFallbackOnLongPaths(t *testing.T) {
	// A provider chain 0 > 1 > ... > 69 with a shortcut 0 > 40. Towards 0
	// every AS routes up the chain, AS 69 in 30 hops over the shortcut and
	// in 69 without it; towards 40 nobody is further than 40 hops either way.
	// The link x > y stands apart: taking it down dirties neither
	// destination, and between a LinkDown and its LinkUp it keeps that
	// LinkUp from undoing the LinkDown, so that the LinkUp repairs.
	const last = 69
	const x, y = last + 1, last + 2
	b := topo.NewBuilder(last + 3)
	for v := 0; v < last; v++ {
		b.AddPC(v, v+1)
	}
	g, err := b.AddPC(0, 40).AddPC(x, y).Build()
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(g, []int{0, 40}, 0)
	if h := tab.Dest(0).Hops(last); h != 30 {
		t.Fatalf("AS %d is %d hops from 0 with the shortcut, want 30", last, h)
	}
	type step struct {
		a, b      int
		up        bool
		fallbacks int64 // of the event
	}
	for i, s := range []step{
		{68, last, false, 0}, // short paths before and after: repaired in place
		{x, y, false, 0},
		{68, last, true, 0},
		{x, y, true, 0},
		{0, 40, false, 1},    // towards 0 the repaired paths reach 63 hops
		{68, last, false, 1}, // towards 0 the old table holds overflow entries
		{x, y, false, 0},
		{68, last, true, 1},
		{0, 40, true, 1},
		{x, y, true, 0},
	} {
		dirty := int64(2) // both destinations, on every event of the chain
		if s.a == x {
			dirty = 0
		}
		before := tab.Stats()
		if s.up {
			tab.LinkUp(s.a, s.b)
		} else {
			tab.LinkDown(s.a, s.b)
		}
		checkAgainstScratch(t, tab, fmt.Sprintf("step %d", i))
		st := tab.Stats()
		if got := st.RepairFallbacks - before.RepairFallbacks; got != s.fallbacks || st.IncrementalComputes-before.IncrementalComputes != dirty {
			t.Errorf("step %d: %d fallbacks of %d dirty, want %d of %d", i, got, st.IncrementalComputes-before.IncrementalComputes, s.fallbacks, dirty)
		}
		if st.Restored != 0 {
			t.Errorf("step %d: %d destinations restored, want every LinkUp repaired", i, st.Restored)
		}
		if st.LocalRepairs+st.RepairFallbacks != st.IncrementalComputes {
			t.Errorf("step %d: %d local + %d fallbacks != %d incremental", i, st.LocalRepairs, st.RepairFallbacks, st.IncrementalComputes)
		}
	}
	if h := tab.Dest(0).Hops(last); h != 30 {
		t.Fatalf("after the schedule AS %d is %d hops from 0, want 30", last, h)
	}
}

// TestRepairNeverWritesSharedArrays: a clone shares its tables' arrays
// with the original, so a link event on one must leave every array the
// other can reach as it was, and replace exactly the tables it dirtied.
// The clone is checked after every event: a LinkUp that restores the
// intact routes would also restore words an in-place LinkDown patched.
func TestRepairNeverWritesSharedArrays(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(g, allDests(g), 0)
	cl := tab.Clone()
	saved := make(map[int][]uint16)
	for _, d := range cl.All() {
		saved[d.Dst()] = slices.Clone(d.packed)
	}
	hub := busiest(g, 1)[0]
	for k, nb := range g.Neighbors(hub) {
		if k == 6 {
			break
		}
		for _, up := range []bool{false, true} {
			before := tab.Clone()
			var n int
			if up {
				n = tab.LinkUp(hub, int(nb.AS))
			} else {
				n = tab.LinkDown(hub, int(nb.AS))
			}
			replaced := 0
			for _, dst := range tab.Dests() {
				if tab.Dest(dst) != before.Dest(dst) {
					replaced++
				}
			}
			if replaced != n {
				t.Fatalf("link (%d,%d) up=%v: %d tables replaced, %d reported dirty", hub, nb.AS, up, replaced, n)
			}
			for _, d := range cl.All() {
				if !slices.Equal(d.packed, saved[d.Dst()]) {
					t.Fatalf("link (%d,%d) up=%v: the clone's table for destination %d changed under a link event on the original", hub, nb.AS, up, d.Dst())
				}
			}
		}
	}
	for _, d := range cl.All() {
		if !tab.Dest(d.Dst()).Equal(d) {
			t.Fatalf("destination %d differs from the intact table after every link came back", d.Dst())
		}
	}
	if st := tab.Stats(); st.LocalRepairs == 0 {
		t.Fatalf("no table was repaired in place: %+v", st)
	}
}
