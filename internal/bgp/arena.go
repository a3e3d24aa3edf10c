package bgp

import "sync"

// arenaSlabWords sizes each slab at 4 MiB — roughly 180 packed arrays per
// slab at paper scale (5,772 stored words ≈ 23 KB each), small enough that
// a modest table doesn't strand much slab tail.
const arenaSlabWords = 1 << 20

// Arena is a bump allocator for packed route entries. A bulk table build
// (NewTable) allocates every destination's packed array from one Arena, so
// the table is a handful of large slabs instead of tens of thousands of
// individually GC-tracked slices — at 44,340 destinations that removes
// ~44k pointers from every GC mark phase and makes the whole table's
// retention obvious in MemStats.
//
// The arena never frees: it is only for initial full computes whose
// results live as long as the Table. Incremental recomputes allocate
// plain slices (a nil *Arena) so replaced tables can be collected —
// routing churn through an arena would leak every superseded array.
//
// The zero of *Arena (nil) is valid and falls back to the heap. Arena is
// safe for concurrent alloc from parallel workers.
type Arena struct {
	mu    sync.Mutex
	slab  int // words per slab; 0 means arenaSlabWords
	slabs int
	cur   []uint32
	used  int64 // words handed out
	total int64 // words reserved in slabs
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// newArena returns an empty arena for a build known to need words in all:
// one that fits a single slab reserves exactly that, so a 400-AS
// simulation's 0.6 MiB of routes do not sit in a 4 MiB slab.
func newArena(words int) *Arena { return &Arena{slab: min(arenaSlabWords, words)} }

// alloc returns a zeroed []uint32 of length n, carved from the current
// slab when it fits. Oversized requests get a dedicated slab.
func (a *Arena) alloc(n int) []uint32 {
	if a == nil {
		return make([]uint32, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > len(a.cur) {
		words := a.slab
		if words == 0 {
			words = arenaSlabWords
		}
		words = max(words, n)
		a.cur = make([]uint32, words)
		a.slabs++
		a.total += int64(words)
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	a.used += int64(n)
	return out
}

// ArenaStats accounts an arena's footprint.
type ArenaStats struct {
	// Slabs is the number of slabs reserved.
	Slabs int
	// AllocatedBytes is the total handed out to packed arrays.
	AllocatedBytes int64
	// RetainedBytes is the total reserved, including slab tails not yet
	// (or never to be) handed out.
	RetainedBytes int64
}

// Stats returns the arena's current accounting. Safe on a nil arena.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{
		Slabs:          a.slabs,
		AllocatedBytes: a.used * 4,
		RetainedBytes:  a.total * 4,
	}
}
