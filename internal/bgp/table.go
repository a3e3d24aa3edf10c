package bgp

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs/span"
	"repro/internal/parallel"
	"repro/internal/topo"
)

// TableStats counts the route computation work a Table has performed. The
// split between full and incremental computes is the quantity the
// resilience experiment reports: a from-scratch rebuild recomputes every
// destination on every topology change, while the incremental path only
// touches destinations whose route tree actually traverses the changed
// link.
type TableStats struct {
	// FullComputes counts per-destination three-phase runs triggered by
	// table construction.
	FullComputes int64
	// IncrementalComputes counts per-destination recomputes triggered by
	// link up/down events (only dirty destinations are re-run). It is the
	// sum of LocalRepairs and RepairFallbacks.
	IncrementalComputes int64
	// LocalRepairs counts the dirty destinations repaired in place: only
	// the routes of the table the event changed were rebuilt.
	LocalRepairs int64
	// RepairFallbacks counts the dirty destinations that took a full
	// Compute on the cut graph instead (routes of 63 hops or more, or more
	// than half the graph holding customer or peer routes through the
	// failed link).
	RepairFallbacks int64
	// Restored counts the destinations a LinkUp put back as they were
	// before the LinkDown it undid (see Table), with no route computed.
	Restored int64
	// CleanSkipped counts destinations a link event left untouched because
	// the dirty-set derivation proved their tables could not change. Every
	// event accounts for each installed destination once, as an
	// incremental compute, a restore or a skip.
	CleanSkipped int64
	// LinkEvents counts LinkDown/LinkUp calls that changed the topology.
	LinkEvents int64
}

// Add accumulates o into s.
func (s *TableStats) Add(o TableStats) {
	s.FullComputes += o.FullComputes
	s.IncrementalComputes += o.IncrementalComputes
	s.LocalRepairs += o.LocalRepairs
	s.RepairFallbacks += o.RepairFallbacks
	s.Restored += o.Restored
	s.CleanSkipped += o.CleanSkipped
	s.LinkEvents += o.LinkEvents
}

// Table owns the per-destination routing tables for one topology and keeps
// them current across link failures and recoveries with incremental
// recomputation: a link event touches only the destinations it can
// actually affect, derived from the stored next-hop pointers (see
// LinkDown/LinkUp), and of each of those only the routes the event changes
// (see repairScratch.repair). The incremental result is
// byte-identical to a from-scratch recompute — TestRepairMatchesCompute,
// TestTableSchedules and FuzzIncrementalTable enforce this.
//
// A table is a function of the graph and the failed set, so a LinkUp that
// undoes the latest LinkDown needs no repair: the tables that LinkDown
// replaced are the answer. Each LinkDown pushes its link and the tables it
// replaced on an undo stack; a LinkUp of the link on top pops the entry
// and reinstalls them, so nested flaps undo last in, first out. Any other
// LinkUp, and any Install, empties the stack, and that LinkUp repairs.
// Memory bound: every entry's link is down, so the stack is never deeper
// than the failed set. Each of the program's callers brings a link back
// right after taking it down, so its stack holds at most the intact
// tables, which its intact table (netsim's, route-repair's clone) or the
// build's shared block keeps alive anyway. Only overlapping failures keep
// tables alive through the stack alone: at most those the failed links'
// LinkDowns replaced.
//
// A Table is not safe for concurrent use; callers that share one across
// goroutines (core.Deployment) serialize access themselves.
type Table struct {
	base *topo.Graph // the intact topology
	// cur is base minus the failed links (base itself when none), built
	// when something asks for it: link events repair off base and a filter,
	// so only Graph and a repair that falls back to Compute do.
	// nil until then; curMu is for the repair workers.
	cur     *topo.Graph
	curMu   sync.Mutex
	failed  map[topo.LinkRef]bool
	cut     cutRows // scratch of the link event in progress
	dests   map[int32]*Dest
	undo    []undoEntry // LinkDowns a LinkUp can undo, latest last
	workers int
	stats   TableStats
	spans   *span.Tracer
}

// undoEntry is one LinkDown on the undo stack: the link and the tables it
// replaced. An entry never changes once pushed, so clones share them.
type undoEntry struct {
	link     topo.LinkRef
	replaced []*Dest
}

// SetTracer attaches a span tracer: every subsequent link event emits a
// route_recompute span (with the event's endpoints and the number of
// destinations it recomputed or restored) and one dest_recompute child per
// recomputed destination (a restore has none), parented to the
// context the caller passes to LinkDownCtx/LinkUpCtx. A nil tracer (the
// default) is free.
func (t *Table) SetTracer(tr *span.Tracer) { t.spans = tr }

// NewTable computes tables for every destination in dsts over g, in
// parallel with the given worker bound (0 = all CPUs), and installs them:
// their words are ComputeAll's one block. With no destinations it returns
// an empty Table to populate with Install.
func NewTable(g *topo.Graph, dsts []int, workers int) *Table {
	t := &Table{
		base:    g,
		cur:     g,
		failed:  make(map[topo.LinkRef]bool),
		dests:   make(map[int32]*Dest, len(dsts)),
		workers: workers,
	}
	for _, d := range ComputeAll(g, dsts, workers) {
		t.dests[d.dst] = d
	}
	t.stats.FullComputes += int64(len(dsts))
	return t
}

// Graph returns the current topology (the intact graph minus failed links).
func (t *Table) Graph() *topo.Graph {
	t.curMu.Lock()
	defer t.curMu.Unlock()
	if t.cur == nil {
		refs := make([]topo.LinkRef, 0, len(t.failed))
		for r := range t.failed {
			refs = append(refs, r)
		}
		g, err := topo.RemoveLinks(t.base, refs)
		if err != nil {
			// Removal cannot introduce cycles or duplicates; an error here means
			// the base graph was invalid.
			panic("bgp: cut graph: " + err.Error())
		}
		t.cur = g
	}
	return t.cur
}

// Dest returns the table for dst, or nil when dst is not installed.
func (t *Table) Dest(dst int) *Dest { return t.dests[int32(dst)] }

// Len returns the number of installed destinations.
func (t *Table) Len() int { return len(t.dests) }

// Dests returns the installed destination indices in ascending order.
func (t *Table) Dests() []int {
	out := make([]int, 0, len(t.dests))
	for dst := range t.dests {
		out = append(out, int(dst))
	}
	slices.Sort(out)
	return out
}

// All returns the installed tables in ascending destination order.
func (t *Table) All() []*Dest {
	dsts := t.Dests()
	out := make([]*Dest, len(dsts))
	for i, dst := range dsts {
		out[i] = t.Dest(dst)
	}
	return out
}

// Install records a computed table, replacing any previous one for the
// same destination. The caller is responsible for d matching the Table's
// current topology. It empties the undo stack: a LinkUp after it repairs.
func (t *Table) Install(d *Dest) {
	t.undo = nil
	t.dests[d.dst] = d
}

// Stats returns the accumulated computation counters.
func (t *Table) Stats() TableStats { return t.stats }

// TableMemStats accounts a Table's routing-state footprint.
type TableMemStats struct {
	// Dests is the number of installed destinations.
	Dests int
	// Entries is the total stored route entries: Dests × the ASes with
	// customers (see Dest).
	Entries int64
	// PackedBytes is the size of all packed entry arrays.
	PackedBytes int64
	// OverflowBytes is the size of all side tables: hop overflow, far next
	// hops (those not held in the Dest itself), and the routes of stubs with
	// failed links.
	OverflowBytes int64
	// BytesPerDest is (PackedBytes+OverflowBytes) / Dests.
	BytesPerDest float64
	// BytesPerEntry is (PackedBytes+OverflowBytes) / Entries.
	BytesPerEntry float64
}

// MemStats sums the footprint of every installed destination table.
func (t *Table) MemStats() TableMemStats {
	m := TableMemStats{Dests: len(t.dests)}
	for _, d := range t.dests {
		m.Entries += int64(len(d.packed))
		m.PackedBytes += int64(cap(d.packed)) * int64(unsafe.Sizeof(d.packed[0]))
		m.OverflowBytes += int64(cap(d.overflow))*int64(unsafe.Sizeof(hopOverflow{})) + int64(cap(d.stubs))*int64(unsafe.Sizeof(stubWord{}))
		if len(d.far) > 0 && unsafe.SliceData(d.far) != &d.farIn[0] {
			m.OverflowBytes += int64(cap(d.far)) * int64(unsafe.Sizeof(farHop{}))
		}
	}
	if m.Dests > 0 {
		m.BytesPerDest = float64(m.PackedBytes+m.OverflowBytes) / float64(m.Dests)
	}
	if m.Entries > 0 {
		m.BytesPerEntry = float64(m.PackedBytes+m.OverflowBytes) / float64(m.Entries)
	}
	return m
}

// Clone returns a Table sharing the (immutable) per-destination tables, the
// topology state and the undo stack's entries but with fresh counters:
// incremental work done on the clone does not disturb the original, which
// is how the simulator keeps an intact reference table while failures
// evolve a copy.
func (t *Table) Clone() *Table {
	return &Table{
		base:    t.base,
		cur:     t.cur,
		failed:  maps.Clone(t.failed),
		dests:   maps.Clone(t.dests),
		undo:    slices.Clone(t.undo),
		workers: t.workers,
		spans:   t.spans,
	}
}

// FailedLinks returns the number of currently failed links.
func (t *Table) FailedLinks() int { return len(t.failed) }

// LinkFailed reports whether the undirected link (a, b) is currently
// failed through this table.
func (t *Table) LinkFailed(a, b int) bool { return t.failed[normLinkRef(a, b)] }

// LinkDown removes the undirected link (a, b) and incrementally recomputes
// the affected destinations, pushing the tables it replaces on the undo
// stack. It returns the number of destinations recomputed, and is a no-op
// (returning 0) when the link does not exist or is already down.
//
// Dirty-set derivation for a removal: deleting link (a, b) withdraws
// exactly two route offers — a's route as offered to b, and b's as offered
// to a. Every other AS's candidate set is unchanged, so the deterministic
// selection fixed point can only move if one of those two offers was
// actually selected, i.e. the destination's route tree traverses the link:
// next[a] == b or next[b] == a.
func (t *Table) LinkDown(a, b int) int {
	return t.LinkDownCtx(a, b, span.Context{})
}

// LinkDownCtx is LinkDown with a causal parent: the incremental
// recompute's spans are children of parent (typically a failure event's
// root span).
func (t *Table) LinkDownCtx(a, b int, parent span.Context) int {
	ref := normLinkRef(a, b)
	if !t.base.HasLink(a, b) || t.failed[ref] {
		return 0
	}
	sp := t.startRecompute(a, b, parent)
	dirty := t.dirtyDests(func(d *Dest) bool { return d.usesLink(a, b) })
	t.failed[ref] = true
	replaced := make([]*Dest, len(dirty))
	for i, dst := range dirty {
		replaced[i] = t.Dest(dst)
	}
	t.undo = append(t.undo, undoEntry{link: ref, replaced: replaced})
	t.recompute(dirty, a, b, false, sp.Context())
	sp.V = float64(len(dirty))
	sp.End()
	return len(dirty)
}

// LinkUp restores a previously failed link. When the link is the one the
// latest LinkDown still on the undo stack took down, it reinstalls the
// tables that LinkDown replaced; otherwise it empties the stack and
// incrementally recomputes the affected destinations. It returns the
// number of destinations restored or recomputed, and is a no-op when the
// link was not failed through this Table.
//
// Dirty-set derivation for a restoration: adding link (a, b) introduces
// exactly two new route offers — a's route offered to b and b's offered to
// a. All other candidate sets are unchanged, so the fixed point moves only
// if one of the new offers beats (under the class / path-length / lowest
// next-hop order) the incumbent best route at its receiving end, after the
// valley-free export filter and the AS-path loop filter.
func (t *Table) LinkUp(a, b int) int {
	return t.LinkUpCtx(a, b, span.Context{})
}

// LinkUpCtx is LinkUp with a causal parent for the recompute's spans.
func (t *Table) LinkUpCtx(a, b int, parent span.Context) int {
	ref := normLinkRef(a, b)
	if !t.failed[ref] {
		return 0
	}
	sp := t.startRecompute(a, b, parent)
	delete(t.failed, ref)
	if n := len(t.undo); n > 0 && t.undo[n-1].link == ref {
		restored := t.restore()
		sp.V = float64(restored)
		sp.End()
		return restored
	}
	t.undo = nil
	// Relationship of each endpoint as seen from the other.
	relAB, ok := t.base.Rel(a, b) // b's role from a's viewpoint
	if !ok {
		panic("bgp: LinkUp restored a link absent from the base graph")
	}
	relBA := relAB.Invert() // a's role from b's viewpoint
	// offerWins wants the announcer's role as seen from the receiver:
	// b announcing to a is classified by Rel(a, b), and vice versa.
	dirty := t.dirtyDests(func(d *Dest) bool {
		return offerWins(d, b, a, relAB) || offerWins(d, a, b, relBA)
	})
	t.recompute(dirty, a, b, true, sp.Context())
	sp.V = float64(len(dirty))
	sp.End()
	return len(dirty)
}

// restore pops the top of the undo stack and reinstalls the tables its
// LinkDown replaced, returning how many. The failed set is already the one
// from before that LinkDown.
func (t *Table) restore() int {
	e := t.undo[len(t.undo)-1]
	t.undo[len(t.undo)-1] = undoEntry{}
	t.undo = t.undo[:len(t.undo)-1]
	for _, d := range e.replaced {
		t.dests[d.dst] = d
	}
	t.linkEvent()
	t.stats.Restored += int64(len(e.replaced))
	t.stats.CleanSkipped += int64(len(t.dests) - len(e.replaced))
	return len(e.replaced)
}

// linkEvent counts a topology change and drops the cut graph it outdates.
func (t *Table) linkEvent() {
	t.stats.LinkEvents++
	t.cur = nil
	if len(t.failed) == 0 {
		t.cur = t.base
	}
}

// dirtyDests scans every installed destination with affected and returns
// the dirty destination indices in ascending order, the work order of
// recompute.
func (t *Table) dirtyDests(affected func(*Dest) bool) []int {
	var dirty []int
	for dst, d := range t.dests {
		if affected(d) {
			dirty = append(dirty, int(dst))
		}
	}
	slices.Sort(dirty)
	return dirty
}

// startRecompute opens the route_recompute span shared by both link
// event directions (the span-name hygiene rule wants exactly one Start
// site per name).
func (t *Table) startRecompute(a, b int, parent span.Context) span.Span {
	sp := t.spans.Start("route_recompute", parent, -1)
	sp.A, sp.B = int64(a), int64(b)
	return sp
}

// usesLink reports whether the destination's route tree traverses the
// undirected link (a, b) — i.e. either endpoint's best route exits through
// the other.
func (d *Dest) usesLink(a, b int) bool {
	return int(d.next32(a)) == b || int(d.next32(b)) == a
}

// offerWins reports whether the route `from` would offer `to` across a
// restored direct link beats to's incumbent best route. rel is from's role
// as seen from to (so the offered route's class at to is classOf(rel)).
func offerWins(d *Dest, from, to int, rel topo.Rel) bool {
	fromClass := d.cls(from)
	if fromClass == ClassUnreachable {
		return false // nothing to offer
	}
	// Valley-free export at from: to its customers from exports everything;
	// to peers and providers only customer (or origin) routes. to is from's
	// customer iff from is to's provider.
	if rel != topo.Provider && fromClass != ClassOrigin && fromClass != ClassCustomer {
		return false
	}
	// Standard AS-path loop filter: from's route must not already contain to.
	if d.onBestPath(from, to) {
		return false
	}
	if d.cls(to) == ClassUnreachable {
		return true // to gains its first route
	}
	cand := Alt{Via: int32(from), Class: classOf(rel), Hops: d.hops16(from) + 1}
	cur := Alt{Via: d.next32(to), Class: d.cls(to), Hops: d.hops16(to)}
	return cand.Better(cur)
}

// recompute brings the given destinations up to date with the failed set
// after the link (a, b) went down or came back up, in parallel, emitting
// one dest_recompute span per destination under parent when a tracer is
// attached. Each gets a fresh table, a copy of its old one with the
// invalidated region rebuilt; the old arrays are never written, since
// clones share them. The whole dirty set is computed, then installed: at
// paper scale the two hub events together repair ~218 MB of words.
func (t *Table) recompute(dirty []int, a, b int, up bool, parent span.Context) {
	t.linkEvent()
	t.stats.IncrementalComputes += int64(len(dirty))
	t.stats.CleanSkipped += int64(len(t.dests) - len(dirty))
	if len(dirty) == 0 {
		return
	}
	t.cut.reset(t.base, t.failed)
	var fallbacks atomic.Int64
	fresh := parallel.Map(len(dirty), t.workers, func(i int) *Dest {
		ds := t.spans.Start("dest_recompute", parent, int32(dirty[i]))
		sc := repairPool.Get().(*repairScratch)
		d := sc.repair(t.base, &t.cut, t.Dest(dirty[i]), a, b, up)
		repairPool.Put(sc)
		if d == nil {
			fallbacks.Add(1)
			d = Compute(t.Graph(), dirty[i])
		}
		ds.End()
		return d
	})
	for _, d := range fresh {
		t.dests[d.dst] = d
	}
	t.stats.RepairFallbacks += fallbacks.Load()
	t.stats.LocalRepairs += int64(len(dirty)) - fallbacks.Load()
}

// Equal reports whether two tables for the same destination hold the same
// route — class, path length and next hop — at every AS. It is the
// differential-testing oracle for incremental recomputation. Two tables on
// one graph compare their stored words and side tables, which are
// canonical: unreachable entries collapse to one word, a stored word
// escapes to far exactly when its next hop sits at index 127 or later, and
// a stub has a side-table route exactly when it differs from what the graph
// derives. Tables on different graphs index different rows and derive
// their stubs' words from different links, so they compare the routes
// decoded, AS by AS.
func (d *Dest) Equal(o *Dest) bool {
	if d.dst != o.dst {
		return false
	}
	if d.g == o.g {
		return slices.Equal(d.packed, o.packed) && slices.Equal(d.overflow, o.overflow) &&
			slices.Equal(d.far, o.far) && slices.Equal(d.stubs, o.stubs)
	}
	if d.g.N() != o.g.N() {
		return false
	}
	for v := 0; v < d.g.N(); v++ {
		w, h, next := d.route(v)
		ow, oh, onext := o.route(v)
		if wordClass(w) != wordClass(ow) || h != oh || next != onext {
			return false
		}
	}
	return true
}

func normLinkRef(a, b int) topo.LinkRef {
	if a > b {
		a, b = b, a
	}
	return topo.LinkRef{A: a, B: b}
}
