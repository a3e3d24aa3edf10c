package bgp

import (
	"sort"
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
	// table construction or destination addition.
	FullComputes int64
	// IncrementalComputes counts per-destination recomputes triggered by
	// link up/down events (only dirty destinations are re-run). It is the
	// sum of LocalRepairs and RepairFallbacks.
	IncrementalComputes int64
	// LocalRepairs counts the dirty destinations repaired in place: only
	// the region of the table the event invalidated was rebuilt.
	LocalRepairs int64
	// RepairFallbacks counts the dirty destinations that took a full
	// Compute on the cut graph instead (routes of 63 hops or more, or a
	// region of more than half the graph).
	RepairFallbacks int64
	// CleanSkipped counts destinations a link event left untouched because
	// the dirty-set derivation proved their tables could not change.
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
	s.CleanSkipped += o.CleanSkipped
	s.LinkEvents += o.LinkEvents
}

// numShards splits the destination map; 64 keeps per-shard maps small at
// paper scale (~700 destinations each at 44k) and gives the parallel
// dirty-set derivation and install natural work units.
const numShards = 64

func shardOf(dst int) int { return dst & (numShards - 1) }

type tableShard struct {
	dests map[int32]*Dest
}

// Table owns the per-destination routing tables for one topology and keeps
// them current across link failures and recoveries with incremental
// recomputation: a link event touches only the destinations it can
// actually affect, derived from the stored next-hop pointers (see
// LinkDown/LinkUp), and of each of those only the region of the table the
// event invalidated (see repairScratch.repair). The incremental result is
// byte-identical to a from-scratch recompute — TestRepairMatchesCompute,
// TestTableSchedules and FuzzIncrementalTable enforce this.
//
// Destinations are sharded by dst & 63: link events derive their dirty
// sets shard-parallel and install repaired tables shard-parallel, so the
// only sequential work per event is filtering the adjacency rows of the
// failed links' endpoints and the sort of the (small) dirty list.
//
// A Table is not safe for concurrent use; callers that share one across
// goroutines (core.Deployment) serialize access themselves.
type Table struct {
	base *topo.Graph // the intact topology
	// cur is base minus the failed links (base itself when none), built
	// when something asks for it: link events repair off base and a filter,
	// so only Graph, AddDest and a repair that falls back to Compute do.
	// nil until then; curMu is for the repair workers.
	cur     *topo.Graph
	curMu   sync.Mutex
	failed  map[topo.LinkRef]bool
	cut     cutRows // scratch of the link event in progress
	shards  [numShards]tableShard
	count   int
	workers int
	stats   TableStats
	spans   *span.Tracer
	arena   *Arena // backs the initial bulk build only; nil after Clone
}

// SetTracer attaches a span tracer: every subsequent link event emits a
// route_recompute span (with the event's endpoints and dirty count) and
// one dest_recompute child per recomputed destination, parented to the
// context the caller passes to LinkDownCtx/LinkUpCtx. A nil tracer (the
// default) is free.
func (t *Table) SetTracer(tr *span.Tracer) { t.spans = tr }

// NewTable computes tables for every destination in dsts over g, in
// parallel with the given worker bound (0 = all CPUs). The initial build
// allocates all packed arrays from one shared arena (see Arena), which
// lives as long as the Table. With no destinations it returns an empty
// Table to populate with Install or AddDest; a caller whose initial
// tables must stay collectable (they will be superseded by link events)
// installs the result of ComputeAll, which allocates from the heap.
func NewTable(g *topo.Graph, dsts []int, workers int) *Table {
	t := &Table{
		base:    g,
		cur:     g,
		failed:  make(map[topo.LinkRef]bool),
		workers: workers,
		arena:   newArena(len(dsts) * g.N()),
	}
	for s := range t.shards {
		t.shards[s].dests = make(map[int32]*Dest)
	}
	for _, d := range computeAllArena(g, dsts, workers, t.arena) {
		t.Install(d)
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
func (t *Table) Dest(dst int) *Dest { return t.shards[shardOf(dst)].dests[int32(dst)] }

// Len returns the number of installed destinations.
func (t *Table) Len() int { return t.count }

// Dests returns the installed destination indices in ascending order.
func (t *Table) Dests() []int {
	out := make([]int, 0, t.count)
	for s := range t.shards {
		for dst := range t.shards[s].dests {
			out = append(out, int(dst))
		}
	}
	sort.Ints(out)
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
// current topology.
func (t *Table) Install(d *Dest) {
	sh := &t.shards[shardOf(d.Dst())]
	if _, ok := sh.dests[d.dst]; !ok {
		t.count++
	}
	sh.dests[d.dst] = d
}

// AddDest computes (on the current topology) and installs the table for a
// new destination, returning it. Installed destinations are recomputed in
// place. Late additions allocate from the heap, not the build arena: they
// may be recomputed and replaced by later link events, and arena memory is
// never reclaimed.
func (t *Table) AddDest(dst int) *Dest {
	d := Compute(t.Graph(), dst)
	t.Install(d)
	t.stats.FullComputes++
	return d
}

// Stats returns the accumulated computation counters.
func (t *Table) Stats() TableStats { return t.stats }

// TableMemStats accounts a Table's routing-state footprint.
type TableMemStats struct {
	// Dests is the number of installed destinations.
	Dests int
	// Entries is the total packed route entries (Dests × N).
	Entries int64
	// PackedBytes is the size of all packed entry arrays.
	PackedBytes int64
	// OverflowBytes is the size of all hop-overflow side tables.
	OverflowBytes int64
	// BytesPerDest is (PackedBytes+OverflowBytes) / Dests.
	BytesPerDest float64
	// BytesPerEntry is (PackedBytes+OverflowBytes) / Entries.
	BytesPerEntry float64
	// ArenaRetainedBytes is what the build arena reserved, including slab
	// tails; zero for tables built destination-by-destination or cloned.
	ArenaRetainedBytes int64
}

// MemStats sums the footprint of every installed destination table.
func (t *Table) MemStats() TableMemStats {
	m := TableMemStats{Dests: t.count}
	for s := range t.shards {
		for _, d := range t.shards[s].dests {
			m.Entries += int64(len(d.packed))
			m.PackedBytes += int64(cap(d.packed)) * 4
			m.OverflowBytes += int64(cap(d.overflow)) * int64(unsafe.Sizeof(hopOverflow{}))
		}
	}
	if m.Dests > 0 {
		m.BytesPerDest = float64(m.PackedBytes+m.OverflowBytes) / float64(m.Dests)
	}
	if m.Entries > 0 {
		m.BytesPerEntry = float64(m.PackedBytes+m.OverflowBytes) / float64(m.Entries)
	}
	m.ArenaRetainedBytes = t.arena.Stats().RetainedBytes
	return m
}

// Clone returns a Table sharing the (immutable) per-destination tables and
// the topology state but with fresh counters: incremental work done on the
// clone does not disturb the original, which is how the simulator keeps an
// intact reference table while failures evolve a copy. The clone does not
// inherit the build arena — its recomputes allocate from the heap.
func (t *Table) Clone() *Table {
	c := &Table{
		base:    t.base,
		cur:     t.cur,
		failed:  make(map[topo.LinkRef]bool, len(t.failed)),
		count:   t.count,
		workers: t.workers,
		spans:   t.spans,
	}
	for r := range t.failed {
		c.failed[r] = true
	}
	for s := range t.shards {
		c.shards[s].dests = make(map[int32]*Dest, len(t.shards[s].dests))
		for dst, d := range t.shards[s].dests {
			c.shards[s].dests[dst] = d
		}
	}
	return c
}

// FailedLinks returns the number of currently failed links.
func (t *Table) FailedLinks() int { return len(t.failed) }

// LinkFailed reports whether the undirected link (a, b) is currently
// failed through this table.
func (t *Table) LinkFailed(a, b int) bool { return t.failed[normLinkRef(a, b)] }

// LinkDown removes the undirected link (a, b) and incrementally recomputes
// the affected destinations. It returns the number of destinations
// recomputed, and is a no-op (returning 0) when the link does not exist or
// is already down.
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
	t.recompute(dirty, a, b, false, sp.Context())
	sp.V = float64(len(dirty))
	sp.End()
	return len(dirty)
}

// LinkUp restores a previously failed link and incrementally recomputes
// the affected destinations. It returns the number of destinations
// recomputed, and is a no-op when the link was not failed through this
// Table.
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

// dirtyDests scans every installed destination with affected, one parallel
// worker per shard, and returns the dirty destination indices (unsorted).
func (t *Table) dirtyDests(affected func(*Dest) bool) []int {
	perShard := parallel.Map(numShards, t.workers, func(s int) []int {
		var out []int
		for dst, d := range t.shards[s].dests {
			if affected(d) {
				out = append(out, int(dst))
			}
		}
		return out
	})
	var dirty []int
	for _, part := range perShard {
		dirty = append(dirty, part...)
	}
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

// recomputeChunkBytes bounds the packed-table bytes one recompute wave
// holds before installing: at paper scale a hub-link failure dirties
// thousands of destinations, and computing them all before installing any
// would double-buffer gigabytes of routes next to the tables they replace.
var recomputeChunkBytes = int64(128 << 20) // a var so tests can force multi-wave runs

// recompute brings the given destinations up to date with the failed set
// after the link (a, b) went down or came back up, in parallel, emitting
// one dest_recompute span per destination under parent when a tracer is
// attached. Each gets a fresh table, a copy of its old one with the
// invalidated region rebuilt; the old arrays are never written, since
// clones share them. Fresh tables come from the heap (not the build arena)
// so the superseded arrays can be collected, and are made and installed in
// waves sized by recomputeChunkBytes — the transient footprint is one wave,
// not the whole dirty set. Installation fans out across shards in parallel;
// workers never touch the same shard map concurrently.
func (t *Table) recompute(dirty []int, a, b int, up bool, parent span.Context) {
	t.stats.LinkEvents++
	t.cur = nil
	if len(t.failed) == 0 {
		t.cur = t.base
	}
	t.stats.IncrementalComputes += int64(len(dirty))
	t.stats.CleanSkipped += int64(t.count - len(dirty))
	if len(dirty) == 0 {
		return
	}
	sort.Ints(dirty) // deterministic work order
	chunk := int(recomputeChunkBytes / (4 * int64(t.base.N())))
	if chunk < 64 {
		chunk = 64
	}
	t.cut.reset(t.base, t.failed)
	var fallbacks atomic.Int64
	byShard := make([][]*Dest, numShards)
	for lo := 0; lo < len(dirty); lo += chunk {
		hi := lo + chunk
		if hi > len(dirty) {
			hi = len(dirty)
		}
		wave := dirty[lo:hi]
		fresh := parallel.Map(len(wave), t.workers, func(i int) *Dest {
			ds := t.spans.Start("dest_recompute", parent, int32(wave[i]))
			sc := repairPool.Get().(*repairScratch)
			d := sc.repair(t.base, &t.cut, t.Dest(wave[i]), a, b, up)
			repairPool.Put(sc)
			if d == nil {
				fallbacks.Add(1)
				d = Compute(t.Graph(), wave[i])
			}
			ds.End()
			return d
		})
		for s := range byShard {
			byShard[s] = byShard[s][:0]
		}
		for _, d := range fresh {
			s := shardOf(d.Dst())
			byShard[s] = append(byShard[s], d)
		}
		parallel.ForEach(numShards, t.workers, func(s int) {
			for _, d := range byShard[s] {
				t.shards[s].dests[d.dst] = d // replace-only: count is unchanged
			}
		})
	}
	t.stats.RepairFallbacks += fallbacks.Load()
	t.stats.LocalRepairs += int64(len(dirty)) - fallbacks.Load()
}

// Equal reports whether two tables for the same destination are
// byte-identical: same packed words and overflow entries, hence same
// class, path length, and next hop at every AS (packing is canonical —
// unreachable entries collapse to one sentinel word). It is the
// differential-testing oracle for incremental recomputation.
func (d *Dest) Equal(o *Dest) bool {
	if d.dst != o.dst || len(d.packed) != len(o.packed) || len(d.overflow) != len(o.overflow) {
		return false
	}
	for i := range d.packed {
		if d.packed[i] != o.packed[i] {
			return false
		}
	}
	for i := range d.overflow {
		if d.overflow[i] != o.overflow[i] {
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
