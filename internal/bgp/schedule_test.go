package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/topo"
)

// linkEvent is one step of a fault schedule.
type linkEvent struct {
	A, B int
	Up   bool
}

func (e linkEvent) link() topo.LinkRef { return normLinkRef(e.A, e.B) }

// scheduleLiteral prints a schedule the way a regression test would spell it.
func scheduleLiteral(evs []linkEvent) string {
	var sb strings.Builder
	sb.WriteString("[]linkEvent{")
	for i, e := range evs {
		if i > 0 {
			sb.WriteString(", ")
		}
		if e.Up {
			fmt.Fprintf(&sb, "{A: %d, B: %d, Up: true}", e.A, e.B)
		} else {
			fmt.Fprintf(&sb, "{A: %d, B: %d}", e.A, e.B)
		}
	}
	sb.WriteString("}")
	return sb.String()
}

// scheduleGen builds fault schedules nobody hand-picked. It tracks the set
// of failed links and looks at routes (Compute on the graph as cut so far)
// only to aim the next failure.
type scheduleGen struct {
	g      *topo.Graph
	rng    *rand.Rand
	links  []topo.LinkRef
	failed []topo.LinkRef
	evs    []linkEvent
}

func (s *scheduleGen) down(l topo.LinkRef) {
	if !slices.Contains(s.failed, l) {
		s.failed = append(s.failed, l)
	}
	s.evs = append(s.evs, linkEvent{A: l.A, B: l.B})
}

func (s *scheduleGen) up(l topo.LinkRef) {
	if i := slices.Index(s.failed, l); i >= 0 {
		s.failed = slices.Delete(s.failed, i, i+1)
	}
	// Endpoints the other way round: the Table must not care.
	s.evs = append(s.evs, linkEvent{A: l.B, B: l.A, Up: true})
}

func (s *scheduleGen) randomLink() topo.LinkRef { return s.links[s.rng.Intn(len(s.links))] }

// routes returns the table towards dst on the graph as it stands.
func (s *scheduleGen) routes(dst int) *Dest {
	cut, err := topo.RemoveLinks(s.g, s.failed)
	if err != nil {
		panic(err)
	}
	return Compute(cut, dst)
}

// overlap fails three links one after the other and restores them in
// another order.
func (s *scheduleGen) overlap() {
	ls := []topo.LinkRef{s.randomLink(), s.randomLink(), s.randomLink()}
	for _, l := range ls {
		s.down(l)
	}
	for _, i := range s.rng.Perm(len(ls)) {
		s.up(ls[i])
	}
}

// nested fails a link some route uses and then, while it is down, the link
// a rerouted AS moved to: the second repair starts from words the first
// one wrote.
func (s *scheduleGen) nested() {
	dst := s.rng.Intn(s.g.N())
	before := s.routes(dst)
	src := s.rng.Intn(s.g.N())
	path := before.ASPath(src)
	if len(path) < 2 {
		return
	}
	i := s.rng.Intn(len(path) - 1)
	first := normLinkRef(path[i], path[i+1])
	s.down(first)
	after := s.routes(dst)
	// path[:i+1] is in the first repair's region; take the first of them
	// that still has a route and fail its new next hop.
	for _, v := range path[:i+1] {
		if next := after.NextHop(v); next >= 0 {
			second := normLinkRef(v, next)
			s.down(second)
			s.up(first)
			s.up(second)
			return
		}
	}
	s.up(first)
}

// upgrade looks for a link whose return gives its upper end a better class
// over a longer path, and takes it down and up.
func (s *scheduleGen) upgrade() {
	for try := 0; try < 8; try++ {
		dst := s.rng.Intn(s.g.N())
		with := s.routes(dst)
		for _, p := range s.rng.Perm(s.g.N()) {
			c := with.NextHop(p)
			if c < 0 || with.Class(p) != ClassCustomer {
				continue
			}
			l := normLinkRef(p, c)
			s.failed = append(s.failed, l)
			without := s.routes(dst)
			s.failed = s.failed[:len(s.failed)-1]
			if without.Reachable(p) && without.Class(p) != ClassCustomer && without.Hops(p) < with.Hops(p) {
				s.down(l)
				s.up(l)
				return
			}
		}
	}
}

// stub cuts a single-homed stub off, then its provider's own uplinks one
// by one, and heals in the order of failure.
func (s *scheduleGen) stub() {
	for _, v := range s.rng.Perm(s.g.N()) {
		if s.g.Degree(v) != 1 || len(s.g.Providers(v)) != 1 {
			continue
		}
		p := int(s.g.Providers(v)[0])
		ls := []topo.LinkRef{normLinkRef(v, p)}
		for _, q := range s.g.Providers(p) {
			ls = append(ls, normLinkRef(p, int(q)))
		}
		for _, l := range ls {
			s.down(l)
		}
		for _, l := range ls {
			s.up(l)
		}
		return
	}
}

// partition isolates an AS with customers — all its links, shuffled — and
// heals it, shuffled again.
func (s *scheduleGen) partition() {
	for _, v := range s.rng.Perm(s.g.N()) {
		if len(s.g.Customers(v)) == 0 || s.g.Degree(v) > 12 {
			continue
		}
		var ls []topo.LinkRef
		for _, nb := range s.g.Neighbors(v) {
			ls = append(ls, normLinkRef(v, int(nb.AS)))
		}
		for _, i := range s.rng.Perm(len(ls)) {
			s.down(ls[i])
		}
		for _, i := range s.rng.Perm(len(ls)) {
			s.up(ls[i])
		}
		return
	}
}

// flap takes one link down, up and down again back to back, with a repeat
// of each thrown in: the Table treats those as no-ops.
func (s *scheduleGen) flap() {
	l := s.randomLink()
	s.down(l)
	s.down(l)
	s.up(l)
	s.up(l)
	s.down(l)
}

// genSchedule returns a schedule over g made of rounds of the shapes above
// in a seeded order, some of them run while a background failure is in
// place. It ends with every link restored.
func genSchedule(g *topo.Graph, seed int64, rounds int) []linkEvent {
	s := &scheduleGen{g: g, rng: rand.New(rand.NewSource(seed)), links: linksOf(g)}
	shapes := []func(){s.overlap, s.nested, s.upgrade, s.stub, s.partition, s.flap}
	for r := 0; r < rounds; r++ {
		if r%3 == 1 {
			s.down(s.randomLink()) // stays down for the rounds to come
		}
		shapes[s.rng.Intn(len(shapes))]()
	}
	for len(s.failed) > 0 {
		s.up(s.failed[s.rng.Intn(len(s.failed))])
	}
	return s.evs
}

// runSchedule plays evs on a fresh Table over g and, after every event,
// compares every installed destination with Compute on the graph cut by
// the links the schedule has down — a set it keeps itself. If the schedule
// leaves no link down, the tables must also equal the intact build.
func runSchedule(g *topo.Graph, dsts []int, evs []linkEvent) error {
	tab := NewTable(g, dsts, 0)
	intact := tab.Clone()
	var failed []topo.LinkRef
	for i, e := range evs {
		before := tab.Clone()
		var n int
		if e.Up {
			n = tab.LinkUp(e.A, e.B)
			if j := slices.Index(failed, e.link()); j >= 0 {
				failed = slices.Delete(failed, j, j+1)
			}
		} else {
			n = tab.LinkDown(e.A, e.B)
			if !slices.Contains(failed, e.link()) && g.HasLink(e.A, e.B) {
				failed = append(failed, e.link())
			}
		}
		if tab.FailedLinks() != len(failed) {
			return fmt.Errorf("event %d %+v: table has %d links down, the schedule %d", i, e, tab.FailedLinks(), len(failed))
		}
		cut, err := topo.RemoveLinks(g, failed)
		if err != nil {
			return err
		}
		replaced := 0
		for _, dst := range dsts {
			got := tab.Dest(dst)
			if got != before.Dest(dst) {
				replaced++
			}
			if !got.Equal(Compute(cut, dst)) {
				return fmt.Errorf("event %d %+v: destination %d differs from Compute with %v down", i, e, dst, failed)
			}
		}
		if replaced != n {
			return fmt.Errorf("event %d %+v: %d destinations reported dirty, %d tables replaced", i, e, n, replaced)
		}
	}
	if len(failed) == 0 {
		for _, dst := range dsts {
			if !tab.Dest(dst).Equal(intact.Dest(dst)) {
				return fmt.Errorf("every link is back and destination %d differs from the intact build", dst)
			}
		}
	}
	st := tab.Stats()
	if st.LocalRepairs+st.RepairFallbacks != st.IncrementalComputes {
		return fmt.Errorf("%d local repairs + %d fallbacks != %d incremental computes", st.LocalRepairs, st.RepairFallbacks, st.IncrementalComputes)
	}
	return nil
}

// shrinkSchedule drops events one at a time for as long as the schedule
// keeps failing, and returns what is left.
func shrinkSchedule(evs []linkEvent, fails func([]linkEvent) bool) []linkEvent {
	for again := true; again; {
		again = false
		for i := 0; i < len(evs); i++ {
			shorter := slices.Delete(slices.Clone(evs), i, i+1)
			if fails(shorter) {
				evs, again = shorter, true
				i--
			}
		}
	}
	return evs
}

// scheduleDests is every AS of a small graph and, of a larger one, a
// seeded sample.
func scheduleDests(g *topo.Graph, seed int64) []int {
	if g.N() <= 60 {
		return allDests(g)
	}
	return rand.New(rand.NewSource(seed)).Perm(g.N())[:48]
}

// TestTableSchedules drives the Table through generated fault schedules:
// overlapping failures, a failure inside the region the last repair
// rewrote, a link whose return upgrades a class over a longer path, a
// single-homed stub and its provider cut off, partition and heal, flaps.
// Each seed's graph is also run with its ASes relabelled at random, so that
// rank in the provider-first order is not the AS index. A failing schedule
// is shrunk and printed as a Go literal.
func TestTableSchedules(t *testing.T) {
	sizes := []struct {
		n, seeds, rounds int
	}{{30, 12, 10}, {60, 12, 10}, {400, 8, 8}}
	if testing.Short() {
		sizes = []struct{ n, seeds, rounds int }{{30, 4, 8}, {60, 3, 8}, {400, 2, 5}}
	}
	for _, sz := range sizes {
		events, schedules := 0, 0
		for seed := int64(1); seed <= int64(sz.seeds); seed++ {
			g, err := topo.Generate(topo.GenConfig{N: sz.n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, on := range []*topo.Graph{g, shuffled(t, g, rand.New(rand.NewSource(seed)))} {
				dsts := scheduleDests(on, seed)
				evs := genSchedule(on, seed, sz.rounds)
				events += len(evs)
				schedules++
				if err := runSchedule(on, dsts, evs); err != nil {
					small := shrinkSchedule(evs, func(e []linkEvent) bool { return runSchedule(on, dsts, e) != nil })
					t.Fatalf("N=%d seed=%d relabelled=%v: %v\nshrunk from %d to %d events (%v):\n%s",
						sz.n, seed, on != g, err, len(evs), len(small), runSchedule(on, dsts, small), scheduleLiteral(small))
				}
			}
		}
		t.Logf("N=%d: %d events over %d schedules", sz.n, events, schedules)
	}
}

// TestScheduleShrinks checks the shrinker on a planted fault: a schedule
// "fails" when it takes link (1,4) down and never brings it back, and the
// one event that matters is all that may be left.
func TestScheduleShrinks(t *testing.T) {
	g := trapTopology(t)
	evs := genSchedule(g, 1, 6)
	evs = slices.Insert(evs, len(evs)/2, linkEvent{A: 1, B: 4})
	for i := len(evs) - 1; i >= 0; i-- { // no restoration of the planted failure
		if evs[i].Up && evs[i].link() == normLinkRef(1, 4) {
			evs = slices.Delete(evs, i, i+1)
		}
	}
	fails := func(evs []linkEvent) bool {
		down := false
		for _, e := range evs {
			if e.link() == normLinkRef(1, 4) {
				down = !e.Up
			}
		}
		return down
	}
	if !fails(evs) {
		t.Fatal("the planted fault does not fail")
	}
	got := shrinkSchedule(evs, fails)
	if want := "[]linkEvent{{A: 1, B: 4}}"; scheduleLiteral(got) != want {
		t.Fatalf("shrunk to %s, want %s", scheduleLiteral(got), want)
	}
}
