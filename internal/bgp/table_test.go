package bgp

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
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
	// (3,5) and (0,3) come back out of order and (0,1) after (0,3), so
	// those LinkUps repair; (5,7) comes back right after it went down, so
	// its LinkUp restores.
	if st.IncrementalComputes == 0 || st.Restored == 0 || st.CleanSkipped == 0 {
		t.Errorf("expected incremental work, restores and clean skips, got %+v", st)
	}
	total := st.IncrementalComputes + st.Restored + st.CleanSkipped
	if want := int64(len(schedule) * g.N()); total != want {
		t.Errorf("incremental + restored + skipped = %d, want %d (every event classifies every dest)", total, want)
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

// TestLinkUpUndo holds both LinkUp paths to their contract. A LinkUp of
// the link the latest outstanding LinkDown took down puts back the tables
// from before that LinkDown, pointer for pointer, and computes nothing;
// nested flaps undo the same way. A LinkUp out of that order, or after an
// Install, repairs. A clone taken between a LinkDown and its LinkUp
// undoes it too, whatever the original does meanwhile.
func TestLinkUpUndo(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dsts := allDests(g)
	hub := busiest(g, 1)[0]
	l1, l2 := int(g.Neighbors(hub)[0].AS), int(g.Neighbors(hub)[1].AS)
	same := func(t *testing.T, tab, want *Table, when string) {
		t.Helper()
		for _, dst := range dsts {
			if tab.Dest(dst) != want.Dest(dst) {
				t.Fatalf("%s: destination %d's table is not the one from before the LinkDown", when, dst)
			}
		}
	}
	// event runs one link event and checks what it reports and counts:
	// a restore of n destinations or a repair of n.
	event := func(t *testing.T, tab *Table, up bool, u int, restore bool) int {
		t.Helper()
		was := tab.Stats()
		var n int
		if up {
			n = tab.LinkUp(hub, u)
		} else {
			n = tab.LinkDown(hub, u)
		}
		st := tab.Stats()
		restored, computed := st.Restored-was.Restored, st.IncrementalComputes-was.IncrementalComputes
		if n == 0 || restore && (restored != int64(n) || computed != 0) || !restore && (restored != 0 || computed != int64(n)) {
			t.Fatalf("link (%d,%d) up=%v: %d reported, %d restored and %d computed, want a restore=%v of all of them", hub, u, up, n, restored, computed, restore)
		}
		if st.IncrementalComputes+st.Restored+st.CleanSkipped != st.LinkEvents*int64(len(dsts)) {
			t.Fatalf("link (%d,%d) up=%v: %+v does not account for every destination of every event", hub, u, up, st)
		}
		checkAgainstScratch(t, tab, fmt.Sprintf("link (%d,%d) up=%v", hub, u, up))
		return n
	}

	t.Run("lifo", func(t *testing.T) {
		tab := NewTable(g, dsts, 0)
		s0 := tab.Clone()
		down1 := event(t, tab, false, l1, false)
		s1 := tab.Clone()
		down2 := event(t, tab, false, l2, false)
		if n := event(t, tab, true, l2, true); n != down2 {
			t.Fatalf("LinkUp restored %d destinations, its LinkDown replaced %d", n, down2)
		}
		same(t, tab, s1, "after the inner LinkUp")
		if n := event(t, tab, true, l1, true); n != down1 {
			t.Fatalf("LinkUp restored %d destinations, its LinkDown replaced %d", n, down1)
		}
		same(t, tab, s0, "after the outer LinkUp")
		if st := tab.Stats(); st.Restored != int64(down1+down2) || st.IncrementalComputes != int64(down1+down2) {
			t.Fatalf("%+v, want %d restored and as many computed", st, down1+down2)
		}
	})
	t.Run("fifo", func(t *testing.T) {
		tab := NewTable(g, dsts, 0)
		intact := tab.Clone()
		event(t, tab, false, l1, false)
		event(t, tab, false, l2, false)
		event(t, tab, true, l1, false)
		event(t, tab, true, l2, false) // the stack went with the first LinkUp
		for _, dst := range dsts {
			if !tab.Dest(dst).Equal(intact.Dest(dst)) {
				t.Fatalf("destination %d differs from the intact build", dst)
			}
		}
	})
	t.Run("install", func(t *testing.T) {
		tab := NewTable(g, dsts, 0)
		event(t, tab, false, l1, false)
		tab.Install(tab.Dest(hub))
		event(t, tab, true, l1, false)
	})
	t.Run("clone", func(t *testing.T) {
		tab := NewTable(g, dsts, 0)
		s0 := tab.Clone()
		event(t, tab, false, l1, false)
		cl := tab.Clone()
		// The original pops the entry and pushes another where it was.
		event(t, tab, true, l1, true)
		event(t, tab, false, l2, false)
		event(t, cl, true, l1, true)
		same(t, cl, s0, "the clone after its LinkUp")
		event(t, tab, true, l2, true)
		same(t, tab, s0, "the original after its LinkUps")
	})
}

// TestEqualAcrossGraphs: a stub's word is derived from its Dest's graph.
// Tables towards one destination on the intact graph and on the graph
// without the provider link a multi-homed stub routes over store the same
// words — no AS routes through a stub — and still differ at the stub, so
// Equal must not take the stored words for the routes. On a copy of the
// graph that cuts nothing the tables agree, compared AS by AS.
func TestEqualAcrossGraphs(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 400, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	copied, err := topo.RemoveLinks(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := 0
	for _, v := range g.ProviderOrder()[g.TailStart():] {
		if len(g.Providers(int(v))) < 2 {
			continue
		}
		dst := int(g.Providers(int(v))[0])
		with := Compute(g, dst)
		if with.NextHop(int(v)) != dst {
			continue
		}
		without := Compute(mustCut(t, g, []topo.LinkRef{{A: int(v), B: dst}}), dst)
		if !slices.Equal(with.packed, without.packed) || !slices.Equal(with.overflow, without.overflow) {
			t.Fatalf("cutting stub %d's link to %d changed the stored words", v, dst)
		}
		if with.Equal(without) || without.Equal(with) {
			t.Fatalf("stub %d routes via %d on one graph and via %d on the other, and Equal says the tables are the same", v, with.NextHop(int(v)), without.NextHop(int(v)))
		}
		if !with.Equal(Compute(copied, dst)) {
			t.Fatalf("destination %d: tables on a graph and its uncut copy differ", dst)
		}
		cases++
	}
	if cases == 0 {
		t.Fatal("no multi-homed stub routes over its first provider: the test tests nothing")
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
	// sweep has to send the customers that used the shorter route to
	// choose again.
	f.Add(int64(0), []byte{31, 31})
	f.Add(int64(7), []byte{69, 69})
	f.Add(int64(6), []byte{116, 116, 140, 140})
	// A negative seed picks a wideGraph and toggles only links with an end
	// whose row outgrows the word's index field.
	f.Add(int64(-1), []byte{0, 1, 0, 1, 77, 200, 200, 77})
	f.Add(int64(-2), []byte{9, 10, 11, 10, 9, 11, 250, 3, 250})
	const seeds = 8
	// Links come back both right after they went down and out of order;
	// a run of the whole corpus must see LinkUps restore and LinkUps
	// repair. A fuzzing run spreads its cases over worker processes, none
	// of which sees all of them.
	var cases, restored, repaired int64
	f.Cleanup(func() {
		if cases >= seeds && !fuzzWorker() && (restored == 0 || repaired == 0) {
			f.Errorf("LinkUps over %d cases restored %d destinations and repaired %d: the cases do not test both", cases, restored, repaired)
		}
	})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24] // bound the per-case schedule length
		}
		g, err := topo.Generate(topo.GenConfig{N: 40, Seed: 1 + seed%8})
		if seed < 0 {
			g, err = wideGraph(t, rand.New(rand.NewSource(seed))), nil
		}
		if err != nil {
			t.Skip("generator rejected config")
		}
		// Collect the links once; each op byte picks one and toggles it.
		links := linksOf(g)
		if seed < 0 {
			links = wideLinks(g)
		}
		if len(links) == 0 {
			t.Skip("no links")
		}
		dsts := []int{0, 1, g.N() / 2, g.N() - 1}
		tab := NewTable(g, dsts, 0)
		down := make(map[topo.LinkRef]bool)
		for _, op := range ops {
			l := links[int(op)%len(links)]
			if down[l] {
				was := tab.Stats()
				tab.LinkUp(l.A, l.B)
				st := tab.Stats()
				restored += st.Restored - was.Restored
				repaired += st.IncrementalComputes - was.IncrementalComputes
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
		cases++
	})
}

// fuzzWorker reports whether this test binary is a fuzzing worker, which
// runs only the cases the coordinator hands it.
func fuzzWorker() bool {
	f := flag.Lookup("test.fuzzworker")
	return f != nil && f.Value.String() == "true"
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

// TestMemStatsCountsStoredWords: an all-destinations table holds one 2-byte word
// for every AS with customers, a destination, and MemStats counts capacity,
// so a window of ComputeAll's block that reached past its own words would
// show here. A LinkDown/LinkUp pair replaces the dirty windows with tables
// of their own and keeps the count.
func TestMemStatsCountsStoredWords(t *testing.T) {
	g := tableTopology(t)
	tab := NewTable(g, allDests(g), 0)
	check := func(when string) {
		t.Helper()
		m := tab.MemStats()
		if want := int64(g.N() * g.TailStart()); m.Entries != want || m.PackedBytes != 2*want {
			t.Fatalf("%s: %d entries in %d packed bytes, want %d in %d", when, m.Entries, m.PackedBytes, want, 2*want)
		}
	}
	check("after the build")
	a, b := pickLink(g)
	if tab.LinkDown(a, b) == 0 {
		t.Fatalf("LinkDown(%d, %d) dirtied nothing", a, b)
	}
	check("after LinkDown")
	tab.LinkUp(a, b)
	check("after LinkUp")
}

// TestRecomputeFanIn makes every destination dirty and proves the repaired
// tables still match a from-scratch compute: AS 1, the only customer of
// AS 0, which every other AS buys transit from, routes everywhere over the
// failed link 0-1.
func TestRecomputeFanIn(t *testing.T) {
	b := topo.NewBuilder(300).AddPC(0, 1)
	for v := 2; v < 300; v++ {
		b.AddPC(v, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(g, allDests(g), 0)
	tab.LinkDown(0, 1)
	checkAgainstScratch(t, tab, "after fan-in LinkDown")
	// AS 2's link to AS 0 goes down in between, so LinkUp(0, 1) is not the
	// undo of the latest LinkDown: it repairs every destination again.
	tab.LinkDown(2, 0)
	checkAgainstScratch(t, tab, "after LinkDown(2, 0)")
	tab.LinkUp(0, 1)
	checkAgainstScratch(t, tab, "after fan-in LinkUp")
	tab.LinkUp(2, 0)
	checkAgainstScratch(t, tab, "after LinkUp(2, 0)")
	st := tab.Stats()
	if st.Restored != 0 {
		t.Fatalf("%d destinations restored, want every LinkUp repaired", st.Restored)
	}
	if st.IncrementalComputes < 300 {
		t.Fatalf("IncrementalComputes = %d, want >= 300 (all dests dirty on the down event)", st.IncrementalComputes)
	}
	// Towards AS 1 every other AS held a customer route over the link: a
	// region of all but one AS is past the bound, so that one destination
	// goes through Compute on the way down, and nothing else does (towards
	// the others only AS 1 loses its route, on the way up nothing is
	// cleared, and AS 2's link carries only AS 2's routes and those to it).
	if st.RepairFallbacks != 1 || st.LocalRepairs != st.IncrementalComputes-1 {
		t.Fatalf("%d fallbacks and %d local repairs of %d, want 1 fallback", st.RepairFallbacks, st.LocalRepairs, st.IncrementalComputes)
	}
}
