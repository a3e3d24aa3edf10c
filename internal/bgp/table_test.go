package bgp

import (
	"testing"

	"repro/internal/topo"
)

// tableTopology is a small multi-homed topology with enough path diversity
// that link events actually move routes: a two-provider core over peered
// mid-tier ASes with multi-homed stubs.
func tableTopology(t testing.TB) *topo.Graph {
	t.Helper()
	g, err := topo.NewBuilder(8).
		AddPC(0, 2).AddPC(0, 3).AddPC(1, 3).AddPC(1, 4).
		AddPeer(0, 1).AddPeer(2, 3).AddPeer(3, 4).
		AddPC(2, 5).AddPC(3, 5).AddPC(3, 6).AddPC(4, 6).
		AddPC(5, 7).AddPC(6, 7).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allDests(g *topo.Graph) []int {
	dsts := make([]int, g.N())
	for i := range dsts {
		dsts[i] = i
	}
	return dsts
}

// checkAgainstScratch asserts every destination table of tab is
// byte-identical to a from-scratch recompute on the equivalent graph.
func checkAgainstScratch(t *testing.T, tab *Table, step string) {
	t.Helper()
	g := tab.Graph()
	for _, dst := range tab.Dests() {
		want := Compute(g, dst)
		if !tab.Dest(dst).Equal(want) {
			t.Fatalf("%s: incremental table for dst %d diverges from scratch recompute", step, dst)
		}
	}
}

// TestTableIncrementalMatchesFull drives a deterministic link down/up
// schedule and proves, after every event, that the incremental result is
// identical to recomputing every destination from scratch.
func TestTableIncrementalMatchesFull(t *testing.T) {
	g := tableTopology(t)
	tab := NewTable(g, allDests(g), 0)
	checkAgainstScratch(t, tab, "initial")

	schedule := []struct {
		a, b int
		up   bool
	}{
		{3, 5, false}, // tree link down
		{0, 3, false}, // second failure while degraded
		{3, 5, true},  // restore the first
		{0, 1, false}, // peer link down
		{0, 3, true},
		{0, 1, true},
		{5, 7, false}, // stub loses one of two providers
		{5, 7, true},
	}
	for i, ev := range schedule {
		if ev.up {
			tab.LinkUp(ev.a, ev.b)
		} else {
			tab.LinkDown(ev.a, ev.b)
		}
		checkAgainstScratch(t, tab, "after event "+string(rune('0'+i)))
	}
	if tab.FailedLinks() != 0 {
		t.Fatalf("failed-link set not empty after full recovery: %d", tab.FailedLinks())
	}

	st := tab.Stats()
	if st.FullComputes != int64(g.N()) {
		t.Errorf("FullComputes = %d, want %d (initial build only)", st.FullComputes, g.N())
	}
	if st.IncrementalComputes == 0 || st.CleanSkipped == 0 {
		t.Errorf("expected both incremental work and clean skips, got %+v", st)
	}
	total := st.IncrementalComputes + st.CleanSkipped
	if want := int64(len(schedule) * g.N()); total != want {
		t.Errorf("incremental + skipped = %d, want %d (every event classifies every dest)", total, want)
	}
}

// TestTableLinkEdgeCases covers the no-op paths: unknown links, double
// failures, recovering a link that never failed.
func TestTableLinkEdgeCases(t *testing.T) {
	g := tableTopology(t)
	tab := NewTable(g, allDests(g), 0)

	if n := tab.LinkDown(0, 7); n != 0 {
		t.Errorf("LinkDown on non-existent link recomputed %d", n)
	}
	if n := tab.LinkUp(2, 3); n != 0 {
		t.Errorf("LinkUp on never-failed link recomputed %d", n)
	}
	tab.LinkDown(2, 3)
	if n := tab.LinkDown(2, 3); n != 0 {
		t.Errorf("second LinkDown of a failed link recomputed %d", n)
	}
	tab.LinkUp(2, 3)
	checkAgainstScratch(t, tab, "after down/up cycle")

	// A pair that names no link is a no-op whichever way round it is
	// written: an endpoint past the last AS, a negative one, a == b.
	before := tab.Stats()
	for _, l := range [][2]int{{9999, 0}, {0, 9999}, {-1, 2}, {2, -1}, {-3, 9999}, {3, 3}} {
		a, b := l[0], l[1]
		if n := tab.LinkDown(a, b); n != 0 {
			t.Errorf("LinkDown(%d, %d) recomputed %d", a, b, n)
		}
		if tab.LinkFailed(a, b) {
			t.Errorf("LinkFailed(%d, %d) after a LinkDown that names no link", a, b)
		}
		if n := tab.LinkUp(a, b); n != 0 {
			t.Errorf("LinkUp(%d, %d) recomputed %d", a, b, n)
		}
	}
	if after := tab.Stats(); after != before {
		t.Errorf("no-op link events moved the counters: %+v -> %+v", before, after)
	}
	if tab.Graph() != g || tab.FailedLinks() != 0 {
		t.Errorf("no-op link events changed the topology: %d failed links", tab.FailedLinks())
	}
}

// TestTableCloneIsolation proves incremental work on a clone leaves the
// original untouched (the simulator's intact-vs-repaired split).
func TestTableCloneIsolation(t *testing.T) {
	g := tableTopology(t)
	tab := NewTable(g, allDests(g), 0)
	before := make(map[int]*Dest)
	for _, dst := range tab.Dests() {
		before[dst] = tab.Dest(dst)
	}

	cl := tab.Clone()
	if st := cl.Stats(); st.FullComputes != 0 || st.IncrementalComputes != 0 {
		t.Fatalf("clone inherits stats: %+v", st)
	}
	cl.LinkDown(3, 5)
	checkAgainstScratch(t, cl, "clone after failure")

	for dst, d := range before {
		if tab.Dest(dst) != d {
			t.Fatalf("original table for dst %d replaced by work on the clone", dst)
		}
	}
	if tab.Graph() != g {
		t.Fatal("original graph replaced by work on the clone")
	}
}

// TestTableAddDest computes new destinations on the current (possibly
// degraded) topology.
func TestTableAddDest(t *testing.T) {
	g := tableTopology(t)
	tab := NewTable(g, nil, 0)
	tab.LinkDown(3, 5) // no dests yet: nothing recomputed, link still cut
	d := tab.AddDest(5)
	want := Compute(tab.Graph(), 5)
	if !d.Equal(want) {
		t.Fatal("AddDest on degraded topology diverges from scratch compute")
	}
	if tab.Len() != 1 || tab.Dest(5) != d {
		t.Fatalf("table bookkeeping wrong after AddDest: len=%d", tab.Len())
	}
}

// FuzzIncrementalTable applies a random sequence of link downs/ups to a
// generated topology and asserts the incremental Table equals a
// from-scratch recompute after every step — the acceptance oracle for the
// dirty-set derivation.
func FuzzIncrementalTable(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 0, 3})
	f.Add(int64(2), []byte{7, 7, 1, 9, 4, 4, 250, 3})
	f.Add(int64(3), []byte{0xff, 0x00, 0x80, 0x21, 0x13, 0x5a})
	// Links whose return upgrades an AS's class over a longer path: the
	// repair has to grow its region and run a second pass.
	f.Add(int64(0), []byte{31, 31})
	f.Add(int64(7), []byte{69, 69})
	f.Add(int64(6), []byte{116, 116, 140, 140})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24] // bound the per-case schedule length
		}
		g, err := topo.Generate(topo.GenConfig{N: 40, Seed: 1 + seed%8})
		if err != nil {
			t.Skip("generator rejected config")
		}
		// Collect the links once; each op byte picks one and toggles it.
		links := linksOf(g)
		if len(links) == 0 {
			t.Skip("no links")
		}
		dsts := []int{0, 1, g.N() / 2, g.N() - 1}
		tab := NewTable(g, dsts, 0)
		down := make(map[topo.LinkRef]bool)
		for _, op := range ops {
			l := links[int(op)%len(links)]
			if down[l] {
				tab.LinkUp(l.A, l.B)
				delete(down, l)
			} else {
				tab.LinkDown(l.A, l.B)
				down[l] = true
			}
			// Oracle: recompute from scratch on the equivalent graph.
			for _, dst := range dsts {
				want := Compute(tab.Graph(), dst)
				if !tab.Dest(dst).Equal(want) {
					t.Fatalf("after toggling link %v (down=%v): incremental table for dst %d diverges",
						l, down[l], dst)
				}
			}
		}
	})
}

// BenchmarkTableIncremental measures one link-down/link-up cycle under
// incremental recomputation on a generated topology with every AS
// installed as a destination — the workload repairedTable runs per
// topology change.
func BenchmarkTableIncremental(b *testing.B) {
	g, err := topo.Generate(topo.GenConfig{N: 300, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tab := NewTable(g, allDests(g), 0)
	// Fail a link that carries routes: AS 1's provider link, if any.
	a, c := pickLink(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.LinkDown(a, c)
		tab.LinkUp(a, c)
	}
	b.StopTimer()
	st := tab.Stats()
	if st.IncrementalComputes > 0 {
		b.ReportMetric(float64(st.IncrementalComputes)/float64(2*b.N), "recomputes/event")
	}
}

// BenchmarkTableFullRebuild is the old-world baseline: every topology
// change recomputes every destination from scratch (what
// netsim.rebuildFailedGraph used to trigger).
func BenchmarkTableFullRebuild(b *testing.B) {
	g, err := topo.Generate(topo.GenConfig{N: 300, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dsts := allDests(g)
	a, c := pickLink(g)
	cut, err := topo.RemoveLinks(g, []topo.LinkRef{{A: a, B: c}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeAll(cut, dsts, 0)
		ComputeAll(g, dsts, 0)
	}
}

// pickLink returns the first link of the highest-degree AS, a link likely
// to carry many route trees.
func pickLink(g *topo.Graph) (int, int) {
	best := busiest(g, 1)[0]
	return best, int(g.Neighbors(best)[0].AS)
}

// TestHeapBuildMatchesArena proves the collectable build (an empty Table
// populated from ComputeAll, the way the paper-scale table-only run does
// it) is byte-identical to the arena-backed one and retains no arena
// memory: its tables must be collectable once link events replace them.
func TestHeapBuildMatchesArena(t *testing.T) {
	g := tableTopology(t)
	arena := NewTable(g, allDests(g), 0)
	heap := NewTable(g, nil, 0)
	for _, d := range ComputeAll(g, allDests(g), 0) {
		heap.Install(d)
	}
	if heap.Len() != arena.Len() {
		t.Fatalf("heap table has %d dests, arena %d", heap.Len(), arena.Len())
	}
	for _, dst := range arena.Dests() {
		if !heap.Dest(dst).Equal(arena.Dest(dst)) {
			t.Fatalf("heap and arena tables diverge at dst %d", dst)
		}
	}
	if got := heap.MemStats().ArenaRetainedBytes; got != 0 {
		t.Fatalf("heap table retains %d arena bytes", got)
	}
	// A build that fits one slab reserves what it needs, not a 4 MiB slab.
	if got, want := arena.MemStats().ArenaRetainedBytes, int64(4*g.N()*g.N()); got != want {
		t.Fatalf("arena table retains %d bytes for %d of routes", got, want)
	}
}

// TestRecomputeChunked forces multi-wave recomputation (the bounded-memory
// path a paper-scale dirty set takes) and proves the result still matches a
// from-scratch compute. A star topology makes every destination dirty: the
// leaf behind the failed link routes everywhere through it.
func TestRecomputeChunked(t *testing.T) {
	defer func(prev int64) { recomputeChunkBytes = prev }(recomputeChunkBytes)
	recomputeChunkBytes = 1 // chunk floor is 64 dests -> 300 dirty = 5 waves

	b := topo.NewBuilder(300)
	for v := 1; v < 300; v++ {
		b.AddPC(0, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(g, allDests(g), 0)
	tab.LinkDown(0, 1)
	checkAgainstScratch(t, tab, "after chunked LinkDown")
	tab.LinkUp(0, 1)
	checkAgainstScratch(t, tab, "after chunked LinkUp")
	st := tab.Stats()
	if st.IncrementalComputes < 300 {
		t.Fatalf("IncrementalComputes = %d, want >= 300 (all dests dirty on the down event)", st.IncrementalComputes)
	}
	// Towards the leaf every other AS routed over the link: a region of
	// all but one AS is past the bound, so that one destination goes
	// through Compute on the way down, and nothing else does (on the way up
	// nobody has a route to lose, and the region stays empty).
	if st.RepairFallbacks != 1 || st.LocalRepairs != st.IncrementalComputes-1 {
		t.Fatalf("%d fallbacks and %d local repairs of %d, want 1 fallback", st.RepairFallbacks, st.LocalRepairs, st.IncrementalComputes)
	}
}
