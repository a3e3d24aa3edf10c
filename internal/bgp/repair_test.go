package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// repairTally counts what checkRepairCase saw.
type repairTally struct {
	cases, changed, fallbacks, visits int
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
			for got.packed[v] == dir.want.packed[v] {
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
	for k := 0; k < links; k++ {
		// Half the toggled links hang off one of the busiest ASes: those
		// carry the large subtrees.
		l := all[rng.Intn(len(all))]
		if k%2 == 0 {
			hub := hubs[rng.Intn(len(hubs))]
			nb := g.Neighbors(hub)
			l = normLinkRef(hub, int(nb[rng.Intn(len(nb))].AS))
		}
		var bg []topo.LinkRef
		for len(bg) < k%4 {
			if x := all[rng.Intn(len(all))]; x != l && !slices.Contains(bg, x) {
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
// its ASes relabelled at random: a generated graph's provider-first order
// is the identity, so only there would a sweep in index order be caught.
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
	var total repairTally
	for _, sz := range sizes {
		var tally repairTally
		for seed := int64(1); seed <= int64(sz.seeds); seed++ {
			g, err := topo.Generate(topo.GenConfig{N: sz.n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed*1000 + int64(sz.n)))
			repairCases(t, g, rng, sz.links, sz.dests, &tally)
			repairCases(t, shuffled(t, g, rng), rng, sz.links, sz.dests, &tally)
		}
		t.Logf("N=%d: %d cases, %d changed the table, %.2f ASes swept a case, %d fallbacks",
			sz.n, tally.cases, tally.changed, float64(tally.visits)/float64(tally.cases), tally.fallbacks)
		if tally.changed < tally.cases/20 {
			t.Errorf("N=%d: only %d of %d cases changed the table", sz.n, tally.changed, tally.cases)
		}
		total.cases += tally.cases
	}
	if !testing.Short() && total.cases < 100000 {
		t.Errorf("%d cases, want at least 100000", total.cases)
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
		if old.packed[v] != want.packed[v] && !old.onBestPath(v, child) {
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
		if old.packed[v] != want.packed[v] {
			changed = append(changed, v)
		}
	}
	if old.NextHop(1) != 2 || !slices.Equal(changed, []int{1}) || want.NextHop(1) != 3 || want.Hops(1) != old.Hops(1) {
		t.Fatalf("the topology no longer sets the case: words %v change, AS 1 goes via %d", changed, want.NextHop(1))
	}
	got, visits := repairOnce(g, []topo.LinkRef{l}, old, 1, 2, false)
	if got == nil || !got.Equal(want) {
		t.Fatal("repair after LinkDown(1,2) differs from Compute")
	}
	if visits != 1 {
		t.Fatalf("the sweep visited %d ASes, want 1 (AS 1, whose length held)", visits)
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
	const last = 69
	b := topo.NewBuilder(last + 1)
	for v := 0; v < last; v++ {
		b.AddPC(v, v+1)
	}
	g, err := b.AddPC(0, 40).Build()
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
		fallbacks int64 // of the event; both destinations are dirty every time
	}
	for i, s := range []step{
		{68, last, false, 0}, // short paths before and after: repaired in place
		{68, last, true, 0},
		{0, 40, false, 1},    // towards 0 the repaired paths reach 63 hops
		{68, last, false, 1}, // towards 0 the old table holds overflow entries
		{68, last, true, 1},
		{0, 40, true, 1},
	} {
		before := tab.Stats()
		if s.up {
			tab.LinkUp(s.a, s.b)
		} else {
			tab.LinkDown(s.a, s.b)
		}
		checkAgainstScratch(t, tab, fmt.Sprintf("step %d", i))
		st := tab.Stats()
		if got := st.RepairFallbacks - before.RepairFallbacks; got != s.fallbacks || st.IncrementalComputes-before.IncrementalComputes != 2 {
			t.Errorf("step %d: %d fallbacks of %d dirty, want %d of 2", i, got, st.IncrementalComputes-before.IncrementalComputes, s.fallbacks)
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
	saved := make(map[int][]uint32)
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
