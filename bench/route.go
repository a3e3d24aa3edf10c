package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/topo"
)

const (
	// routeDests is the number of destinations both routing workloads keep
	// tables for, spread evenly across the AS index space.
	routeDests = 128
	// repairLinks is the number of links one repair schedule fails and
	// restores.
	repairLinks       = 4
	routeWarmupTables = 3
)

// routeInputs is the paper-scale graph (44,340 ASes, Table I) and the
// destination set. Both are fixed; the seed orders the destinations and the
// failure schedule, so every seed is the same work.
type routeInputs struct {
	g    *topo.Graph
	dsts []int
	rng  *rand.Rand
}

func newRouteInputs(o options, tr *tracer) (*routeInputs, error) {
	cfg := topo.PaperScaleConfig(1)
	dests := routeDests
	if o.tiny {
		cfg.N, dests = 1500, 16
	}
	sp := tr.start("topo.Generate", 0)
	g, err := topo.Generate(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in := &routeInputs{g: g, dsts: make([]int, dests), rng: rand.New(rand.NewSource(o.seed))}
	for k := range in.dsts {
		in.dsts[k] = k * g.N() / dests
	}
	in.rng.Shuffle(dests, func(a, b int) { in.dsts[a], in.dsts[b] = in.dsts[b], in.dsts[a] })
	return in, nil
}

// sameTables returns the destinations whose tables differ between a and b.
func sameTables(a, b *bgp.Table, dsts []int) (differ []int) {
	for _, d := range dsts {
		da, db := a.Dest(d), b.Dest(d)
		if da == nil || db == nil || (da != db && !da.Equal(db)) {
			differ = append(differ, d)
		}
	}
	return differ
}

// buildWorkload is route-build: one bgp.NewTable over the paper-scale graph
// per segment.
type buildWorkload struct {
	in       *routeInputs
	tr       *tracer
	first    *bgp.Table
	tables   int64
	breaches []string
}

func (w *buildWorkload) build() *bgp.Table {
	sp := w.tr.start("bgp.NewTable", 0)
	t := bgp.NewTable(w.in.g, w.in.dsts, 0)
	w.tr.end(sp)
	return t
}

func (w *buildWorkload) setup(o options, tr *tracer) error {
	w.tr = tr
	in, err := newRouteInputs(o, tr)
	if err != nil {
		return err
	}
	w.in = in
	for i := 0; i < routeWarmupTables; i++ {
		w.first = w.build()
	}
	return nil
}

func (w *buildWorkload) phases(options) []phase {
	return []phase{{
		name: "build", ops: len(w.in.dsts), throughput: true, latency: true,
		segment: func(i int, sw *stopwatch) ([]int64, error) {
			sw.start()
			t := w.build()
			sw.stop()
			w.tables++
			if bad := sameTables(t, w.first, w.in.dsts); len(bad) > 0 {
				w.breaches = append(w.breaches, fmt.Sprintf("segment %d: tables of destinations %v differ from the first build's", i, bad))
			}
			// One destination per segment is also checked against the
			// single-destination reference computation.
			d := w.in.dsts[i%len(w.in.dsts)]
			if !t.Dest(d).Equal(bgp.Compute(w.in.g, d)) {
				w.breaches = append(w.breaches, fmt.Sprintf("segment %d: table of destination %d differs from bgp.Compute", i, d))
			}
			return nil, nil
		},
	}}
}

func (w *buildWorkload) verify() (attempted, failed int64, breaches []string) {
	return w.tables * int64(len(w.in.dsts)), int64(len(w.breaches)), w.breaches
}

func (w *buildWorkload) teardown() {}
func (w *buildWorkload) note() string {
	return ""
}

// repairWorkload is route-repair: a table over the paper-scale graph kept
// current while links of the highest-degree AS fail and come back.
type repairWorkload struct {
	in    *routeInputs
	tr    *tracer
	table *bgp.Table
	// intact holds the table as first built, for comparison after each
	// LinkUp.
	intact *bgp.Table
	hub    int
	links  []int         // far ends of the scheduled links, in schedule order
	cut    []*topo.Graph // the graph without each scheduled link
	lat    []int64

	events   int64
	dirty    [2]int64 // incremental computes and clean skips of the first segment
	dirtySet bool
	breaches []string
}

// hubPeers returns the highest-degree AS of g and its peers, largest first.
// Links between the largest transit ASes are the failures that reach the
// most routes without cutting any AS off.
func hubPeers(g *topo.Graph) (hub int, peers []int) {
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	for _, nb := range g.Neighbors(hub) {
		if nb.Rel == topo.Peer {
			peers = append(peers, int(nb.AS))
		}
	}
	sort.SliceStable(peers, func(a, b int) bool { return g.Degree(peers[a]) > g.Degree(peers[b]) })
	return hub, peers
}

func (w *repairWorkload) setup(o options, tr *tracer) error {
	w.tr = tr
	in, err := newRouteInputs(o, tr)
	if err != nil {
		return err
	}
	w.in = in
	hub, peers := hubPeers(in.g)
	if len(peers) < repairLinks {
		return fmt.Errorf("AS %d has %d peers, the schedule needs %d", hub, len(peers), repairLinks)
	}
	w.hub, w.links = hub, peers[:repairLinks]
	in.rng.Shuffle(repairLinks, func(a, b int) { w.links[a], w.links[b] = w.links[b], w.links[a] })
	w.cut = make([]*topo.Graph, repairLinks)
	for k, u := range w.links {
		sp := tr.start("topo.RemoveLinks", 0)
		w.cut[k], err = topo.RemoveLinks(in.g, []topo.LinkRef{{A: hub, B: u}})
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := tr.start("bgp.NewTable", 0)
	w.table = bgp.NewTable(in.g, in.dsts, 0)
	tr.end(sp)
	w.intact = w.table.Clone()
	w.lat = make([]int64, 0, 2*repairLinks)
	var sw stopwatch
	w.schedule(-1, &sw) // warm-up: one pass of the schedule
	w.events, w.dirtySet = 0, false
	if len(w.breaches) > 0 {
		return fmt.Errorf("warm-up: %s", w.breaches[0])
	}
	return nil
}

// schedule takes every scheduled link down and up again, timing each event
// through sw and checking the table after it with the watch stopped.
func (w *repairWorkload) schedule(seg int, sw *stopwatch) {
	w.lat = w.lat[:0]
	before := w.table.Stats()
	for k, u := range w.links {
		// Reference computations are slow, so each segment checks one of
		// the links.
		check := seg < 0 || seg%repairLinks == k
		var prev *bgp.Table
		if check {
			prev = w.table.Clone()
		}
		sw.start()
		sp := w.tr.start("bgp.Table.LinkDown", 0)
		t0 := time.Now()
		w.table.LinkDown(w.hub, u)
		w.lat = append(w.lat, time.Since(t0).Nanoseconds())
		w.tr.end(sp)
		sw.stop()
		if check {
			w.checkDown(seg, k, prev)
		}

		sw.start()
		sp = w.tr.start("bgp.Table.LinkUp", 0)
		t0 = time.Now()
		w.table.LinkUp(w.hub, u)
		w.lat = append(w.lat, time.Since(t0).Nanoseconds())
		w.tr.end(sp)
		sw.stop()
		if bad := sameTables(w.table, w.intact, w.in.dsts); len(bad) > 0 {
			w.breaches = append(w.breaches, fmt.Sprintf("segment %d: after LinkUp(%d,%d) destinations %v differ from the intact table", seg, w.hub, u, bad))
		}
	}
	w.events += int64(len(w.lat))
	after := w.table.Stats()
	d := [2]int64{after.IncrementalComputes - before.IncrementalComputes, after.CleanSkipped - before.CleanSkipped}
	if !w.dirtySet {
		w.dirty, w.dirtySet = d, true
	} else if d != w.dirty {
		w.breaches = append(w.breaches, fmt.Sprintf("segment %d: %d recomputed and %d skipped, the first segment %d and %d", seg, d[0], d[1], w.dirty[0], w.dirty[1]))
	}
}

// checkDown compares, with link k down, one destination the event recomputed
// and one it left alone against bgp.Compute on the graph without that link.
// prev shares the per-destination tables from before the event, so a
// destination was recomputed exactly when its pointer differs.
func (w *repairWorkload) checkDown(seg, k int, prev *bgp.Table) {
	var dirty, clean []int
	for _, d := range w.in.dsts {
		if w.table.Dest(d) != prev.Dest(d) {
			dirty = append(dirty, d)
		} else {
			clean = append(clean, d)
		}
	}
	pick := seg/repairLinks + 1
	for _, set := range [][]int{dirty, clean} {
		if len(set) == 0 {
			continue
		}
		d := set[pick%len(set)]
		if !w.table.Dest(d).Equal(bgp.Compute(w.cut[k], d)) {
			w.breaches = append(w.breaches, fmt.Sprintf("segment %d: with link (%d,%d) down, destination %d differs from bgp.Compute on the cut graph", seg, w.hub, w.links[k], d))
		}
	}
}

func (w *repairWorkload) phases(options) []phase {
	return []phase{{
		name: "repair", ops: 2 * repairLinks, throughput: true, latency: true,
		segment: func(i int, sw *stopwatch) ([]int64, error) {
			w.schedule(i, sw)
			return w.lat, nil
		},
	}}
}

// dirtyShare is the share of per-event destination checks that led to a
// recompute.
func (w *repairWorkload) dirtyShare() float64 {
	return float64(w.dirty[0]) / float64(w.dirty[0]+w.dirty[1])
}

func (w *repairWorkload) verify() (attempted, failed int64, breaches []string) {
	return w.events, int64(len(w.breaches)), w.breaches
}

func (w *repairWorkload) teardown() {}

func (w *repairWorkload) note() string {
	return fmt.Sprintf("schedule hub=%d links=%v dirty=%d of %d checks (%.4f)",
		w.hub, w.links, w.dirty[0], w.dirty[0]+w.dirty[1], w.dirtyShare())
}
