package bgp

// Rows longer than the word's index field. A word keeps its next hop as an
// index into the holder's row for the route's class, in 7 bits; an index
// of idxEscape or more escapes to the far side table. Internet rows that
// long are a few hubs' customers and peers, so at paper scale only a few
// dozen routes escape; the graphs here make hundreds of them in every
// class, with ties between escaped and inline candidates, and hold them to
// the dense oracle, to Table's link events and to Equal across graphs whose
// rows differ.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topo"
)

// wideGraph builds a graph around rows of 200: a hub with 200 customers
// (the mids), an AS that peers with all of them, an AS that buys transit
// from all of them, and stubs with 200 providers and with 200 peers. The
// mids buy transit from one another at random, providers first, and carry
// stubs, each under one to three of them. AS indices are shuffled, so
// where a next hop sits in a row says nothing about its role.
func wideGraph(t testing.TB, rng *rand.Rand) *topo.Graph {
	t.Helper()
	const wide, stubs = 200, 90
	n := wide + 5 + stubs
	as := rng.Perm(n)
	mid := func(i int) int { return as[1+i] }
	hub, peerRich, multi, wideStub, peerStub := as[0], as[wide+1], as[wide+2], as[wide+3], as[wide+4]
	b := topo.NewBuilder(n).AddPC(hub, peerRich).AddPC(hub, peerStub)
	for i := 0; i < wide; i++ {
		b.AddPC(hub, mid(i)).AddPC(mid(i), multi).AddPC(mid(i), wideStub).AddPeer(peerRich, mid(i)).AddPeer(peerStub, mid(i))
	}
	for k := 0; k < wide; k++ {
		i, j := rng.Intn(wide), rng.Intn(wide)
		if i > j {
			i, j = j, i
		}
		if i != j && !b.HasLink(mid(i), mid(j)) {
			b.AddPC(mid(i), mid(j))
		}
	}
	for s := 0; s < stubs; s++ {
		stub := as[wide+5+s]
		switch s % 3 {
		case 0:
			for k := rng.Intn(3); k >= 0; k-- {
				if m := mid(rng.Intn(wide)); !b.HasLink(m, stub) {
					b.AddPC(m, stub)
				}
			}
		case 1:
			b.AddPC(multi, stub).AddPC(peerRich, stub)
		default:
			b.AddPC(mid(rng.Intn(wide)), stub)
			if m := mid(rng.Intn(wide)); !b.HasLink(m, stub) {
				b.AddPeer(m, stub)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wideLinks returns g's links with an end whose row of that link's kind is
// longer than the index field reaches.
func wideLinks(g *topo.Graph) []topo.LinkRef {
	var out []topo.LinkRef
	for _, l := range linksOf(g) {
		rel, _ := g.Rel(l.A, l.B)
		if len(g.Related(l.A, rel)) > idxEscape || len(g.Related(l.B, rel.Invert())) > idxEscape {
			out = append(out, l)
		}
	}
	return out
}

// wideTally counts, over tables, the routes whose next hop sits at index
// idxEscape or later in its row, by class, and the routes with a rival of
// the same class and length at such an index, by where the winner sits:
// inline, so that an inline candidate beat an escaped one, or escaped too,
// so that two escaped candidates were told apart by their ASes.
type wideTally struct {
	escaped                               map[Class]int
	inlineOverEscaped, escapedOverEscaped int
}

func (w *wideTally) add(g *topo.Graph, d *Dest) {
	for v := 0; v < g.N(); v++ {
		c := d.Class(v)
		if c != ClassCustomer && c != ClassPeer && c != ClassProvider {
			continue
		}
		row := g.Related(v, relOf(c))
		k := slices.Index(row, int32(d.NextHop(v)))
		if k >= idxEscape {
			w.escaped[c]++
		}
		rivals := 0
		for i, u := range row {
			if i == k || i < idxEscape || d.Hops(int(u)) != d.Hops(v)-1 {
				continue
			}
			if uc := d.Class(int(u)); uc == ClassUnreachable || c != ClassProvider && uc > ClassCustomer {
				continue
			}
			rivals++
		}
		switch {
		case rivals == 0:
		case k < idxEscape:
			w.inlineOverEscaped++
		default:
			w.escapedOverEscaped++
		}
	}
}

func (w *wideTally) require(t *testing.T) {
	t.Helper()
	for _, c := range []Class{ClassCustomer, ClassPeer, ClassProvider} {
		if w.escaped[c] == 0 {
			t.Errorf("no %v route's next hop sits at index %d or later: the graphs do not reach that escape", c, idxEscape)
		}
	}
	if w.inlineOverEscaped == 0 || w.escapedOverEscaped == 0 {
		t.Errorf("ties won inline over an escaped rival: %d, escaped over an escaped rival: %d; the graphs do not test both", w.inlineOverEscaped, w.escapedOverEscaped)
	}
	t.Logf("escaped next hops by class: %v; ties won inline over escaped: %d, escaped over escaped: %d", w.escaped, w.inlineOverEscaped, w.escapedOverEscaped)
}

// TestWideRowsMatchOracle holds Compute and ComputeAll to the dense oracle
// on every destination of wide graphs, intact and with a tenth of their
// links cut, the cut graphs' rows shifted against the intact ones'.
func TestWideRowsMatchOracle(t *testing.T) {
	tally := wideTally{escaped: map[Class]int{}}
	var stubCuts [2]int
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := wideGraph(t, rng)
		for _, on := range []*topo.Graph{g, removeRandomLinks(t, g, rng, g.N()/10, &stubCuts)} {
			dsts := make([]int, on.N())
			for dst := range dsts {
				dsts[dst] = dst
				d := Compute(on, dst)
				requireMatchesDense(t, on, d, computeDenseOracle(on, dst))
				tally.add(on, d)
			}
			requireBatchMatchesOracle(t, on, dsts[:2*batchSize+1])
		}
	}
	tally.require(t)
}

// TestWideRowsTableLinkEvents fails and restores links whose far end is an
// escaped next hop, in a Table of every destination: after each event
// every table must equal Compute on the graph of the links that are up.
// Each link goes down and comes back (a restore), and then again with
// another such link going down in between, so that its return repairs.
func TestWideRowsTableLinkEvents(t *testing.T) {
	g := wideGraph(t, rand.New(rand.NewSource(4)))
	tab := NewTable(g, allDests(g), 0)
	var escapedLinks []topo.LinkRef
	for _, d := range tab.All() {
		for v := 0; v < g.N() && len(escapedLinks) < 6; v++ {
			c := d.Class(v)
			if c == ClassOrigin || c == ClassUnreachable {
				continue
			}
			l := normLinkRef(v, d.NextHop(v))
			if slices.Index(g.Related(v, relOf(c)), int32(d.NextHop(v))) >= idxEscape && !slices.Contains(escapedLinks, l) {
				escapedLinks = append(escapedLinks, l)
			}
		}
	}
	if len(escapedLinks) < 2 {
		t.Fatalf("%d links carry an escaped next hop; want at least 2", len(escapedLinks))
	}
	check := func(when string) {
		t.Helper()
		for _, dst := range tab.Dests() {
			if !tab.Dest(dst).Equal(Compute(tab.Graph(), dst)) {
				t.Fatalf("%s: destination %d differs from Compute", when, dst)
			}
		}
	}
	for i, l := range escapedLinks {
		other := escapedLinks[(i+1)%len(escapedLinks)]
		if tab.LinkDown(l.A, l.B) == 0 {
			t.Fatalf("LinkDown%v dirtied nothing, though a route's next hop crosses it", l)
		}
		check(fmt.Sprintf("after LinkDown%v", l))
		tab.LinkUp(l.A, l.B)
		check(fmt.Sprintf("after LinkUp%v", l))
		tab.LinkDown(l.A, l.B)
		tab.LinkDown(other.A, other.B)
		check(fmt.Sprintf("after LinkDown%v and LinkDown%v", l, other))
		tab.LinkUp(l.A, l.B)
		check(fmt.Sprintf("after LinkUp%v with %v down", l, other))
		tab.LinkUp(other.A, other.B)
		check(fmt.Sprintf("after LinkUp%v", other))
	}
	if st := tab.Stats(); st.LocalRepairs == 0 || st.Restored == 0 {
		t.Fatalf("stats %+v: want both repairs and restores", st)
	}
}

// TestWideRowsEqualAcrossShiftedRows: cutting a link of v to a neighbour
// that sits before v's next hop in its row, and that no route towards the
// destination uses, leaves every route as it was but shifts the index of
// v's next hop, across the escape boundary among others: Equal must find
// the tables the same. Cutting v's next hop itself, where the candidate
// after it ties, leaves v's word as it was and changes its next hop: Equal
// must find the tables different.
func TestWideRowsEqualAcrossShiftedRows(t *testing.T) {
	g := wideGraph(t, rand.New(rand.NewSource(5)))
	shifted, crossed, sameWord := 0, 0, 0
	for dst := 0; dst < g.N(); dst++ {
		with := Compute(g, dst)
		for v := 0; v < g.N(); v++ {
			c := with.Class(v)
			if c == ClassOrigin || c == ClassUnreachable {
				continue
			}
			row := g.Related(v, relOf(c))
			k := slices.Index(row, int32(with.NextHop(v)))
			// A neighbour before the next hop, over a link no route uses.
			j := k - 1
			for j >= 0 && with.usesLink(v, int(row[j])) {
				j--
			}
			if j >= 0 && (k == idxEscape || (v+dst)%12 == 0) {
				cut := mustCut(t, g, []topo.LinkRef{{A: v, B: int(row[j])}})
				without := Compute(cut, dst)
				if !with.Equal(without) || !without.Equal(with) {
					t.Fatalf("dst %d: cutting %d-%d, which no route uses, changed the routes Equal sees", dst, v, row[j])
				}
				if k <= idxEscape && with.word(v) == without.word(v) {
					t.Fatalf("dst %d: AS %d's word %#x kept its index %d though a neighbour before its next hop went", dst, v, with.word(v), k)
				}
				shifted++
				if k == idxEscape {
					crossed++
				}
			}
			// The next hop, when the neighbour after it ties.
			if (v+dst)%3 == 0 && k+1 < len(row) && with.Hops(int(row[k+1])) == with.Hops(v)-1 && with.Class(int(row[k+1])) == with.Class(int(row[k])) {
				without := Compute(mustCut(t, g, []topo.LinkRef{{A: v, B: int(row[k])}}), dst)
				if without.NextHop(v) != int(row[k+1]) || without.word(v) != with.word(v) {
					continue // the cut moved more than v's choice
				}
				if with.Equal(without) || without.Equal(with) {
					t.Fatalf("dst %d: AS %d routes via %d on one graph and via %d on the other under the same word, and Equal says the tables are the same", dst, v, row[k], row[k+1])
				}
				sameWord++
			}
		}
	}
	if crossed == 0 || sameWord == 0 {
		t.Fatalf("%d shifted indices (%d across the escape boundary), %d same-word next-hop changes: the graph does not test each", shifted, crossed, sameWord)
	}
	t.Logf("%d shifted indices (%d across the escape boundary), %d same-word next-hop changes", shifted, crossed, sameWord)
}
