package dataplane

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs/span"
)

// FIB maps destination identifiers to forwarding entries as a sequence of
// immutable generations: the forwarding engine's lookup is a single atomic
// pointer load into a map nobody will ever mutate again, and the MIFO
// daemon publishes changes by building the next generation and swapping
// the pointer. This is the generation-swapped split real routers (and the
// paper's kernel fib_table, Fig. 10) use — the FE reads at line speed with
// zero locks while the daemon batches writes.
//
// Writers stage changes in a transaction (Begin / Set / SetAlt / Commit):
// one control epoch's worth of alt re-selections becomes one map copy and
// one pointer swap instead of a per-entry write lock. The single-shot Set
// remains for setup code and costs a full generation (copy + swap); batch
// through a transaction on any hot path.
type FIB struct {
	cur atomic.Pointer[fibGen]
	// mu serializes writers: a transaction holds it from Begin to Commit,
	// so generations advance one at a time and no staged copy is ever lost
	// to a concurrent writer. Readers never touch it.
	mu sync.Mutex
	// spans/node emit a fib_swap span at the publication instant of every
	// dirty commit — the moment the data plane becomes consistent with the
	// control plane's latest epoch. Nil tracer (the default) is free.
	spans *span.Tracer
	node  int32
}

// SetTracer attaches a span tracer and this FIB's node identity (its
// router ID); subsequent dirty commits emit fib_swap spans under the
// context given to FIBTx.TraceUnder.
func (f *FIB) SetTracer(tr *span.Tracer, node int32) {
	f.spans = tr
	f.node = node
}

// fibGen is one immutable FIB generation. The entries map is never written
// after the generation is published.
type fibGen struct {
	gen     uint64
	entries map[int32]FIBEntry
}

var emptyFIBGen = &fibGen{entries: map[int32]FIBEntry{}}

// NewFIB returns an empty FIB at generation zero.
func NewFIB() *FIB {
	f := &FIB{}
	f.cur.Store(emptyFIBGen)
	return f
}

// Lookup returns the entry for dst. It is wait-free: one atomic load and a
// read of an immutable map, safe under any number of concurrent commits.
func (f *FIB) Lookup(dst int32) (FIBEntry, bool) {
	e, ok := f.cur.Load().entries[dst]
	return e, ok
}

// Len returns the number of installed entries.
func (f *FIB) Len() int { return len(f.cur.Load().entries) }

// Generation returns the identifier of the published generation. It
// increments by exactly one per committed transaction that changed
// anything, so an operator (or test) can count FIB updates.
func (f *FIB) Generation() uint64 { return f.cur.Load().gen }

// FIBTx is a staged next generation. It is created by Begin, mutated by
// Set/SetAlt/Delete, and published (atomically, all-or-nothing from the
// reader's point of view) by Commit. A transaction holds the FIB's writer
// lock for its whole lifetime: always Commit, and never leak one.
type FIBTx struct {
	f       *FIB
	entries map[int32]FIBEntry
	dirty   bool
	parent  span.Context
}

// TraceUnder parents the transaction's fib_swap span (emitted at Commit
// when the FIB carries a tracer and the transaction changed anything)
// under the given span context.
func (tx *FIBTx) TraceUnder(parent span.Context) { tx.parent = parent }

// Dirty reports whether the transaction has staged an effective change.
func (tx *FIBTx) Dirty() bool { return tx.dirty }

// Begin opens a transaction against the current generation, copying its
// entries. The copy is what makes the published generations immutable —
// and why batching matters: N staged changes cost one copy, not N.
func (f *FIB) Begin() *FIBTx {
	f.mu.Lock()
	cur := f.cur.Load()
	entries := make(map[int32]FIBEntry, len(cur.entries)+1)
	for k, v := range cur.entries {
		entries[k] = v
	}
	return &FIBTx{f: f, entries: entries}
}

// Set stages an install or replacement of the entry for dst. Staging an
// entry identical to the incumbent is a no-op, so re-installing an
// unchanged table does not dirty the generation — routers whose
// forwarding did not actually change publish nothing.
func (tx *FIBTx) Set(dst int32, e FIBEntry) {
	if old, ok := tx.entries[dst]; ok && old == e {
		return
	}
	tx.entries[dst] = e
	tx.dirty = true
}

// SetAlt stages an update of only the alternative of an existing entry.
// It reports false (and stages nothing) when dst has no entry.
func (tx *FIBTx) SetAlt(dst int32, alt int, via RouterID) bool {
	e, ok := tx.entries[dst]
	if !ok {
		return false
	}
	if e.Alt == alt && e.AltVia == via {
		return true // already current: avoid dirtying the generation
	}
	e.Alt = alt
	e.AltVia = via
	tx.entries[dst] = e
	tx.dirty = true
	return true
}

// Delete stages withdrawal of the entry for dst — the control plane lost
// its route, so forwarding must drop as no-route rather than follow a
// stale entry into a black hole. Deleting an absent entry is a no-op and
// does not dirty the generation.
func (tx *FIBTx) Delete(dst int32) {
	if _, ok := tx.entries[dst]; !ok {
		return
	}
	delete(tx.entries, dst)
	tx.dirty = true
}

// Commit publishes the staged generation with a single pointer swap and
// releases the writer lock, returning the published generation id. A
// transaction that staged no effective change publishes nothing and the
// generation id stays put.
func (tx *FIBTx) Commit() uint64 {
	cur := tx.f.cur.Load()
	gen := cur.gen
	if tx.dirty {
		gen++
		sp := tx.f.spans.Start("fib_swap", tx.parent, tx.f.node)
		tx.f.cur.Store(&fibGen{gen: gen, entries: tx.entries})
		sp.A = int64(gen)
		sp.End()
	}
	tx.f.mu.Unlock()
	tx.f = nil // poison: a second Commit is a bug, fail loudly
	return gen
}

// Set installs or replaces the entry for dst in a single-op transaction.
func (f *FIB) Set(dst int32, e FIBEntry) {
	tx := f.Begin()
	tx.Set(dst, e)
	tx.Commit()
}
