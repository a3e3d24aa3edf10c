package dataplane

import (
	"maps"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFIBTransactionAtomicity: a reader must never observe a half-applied
// transaction — every lookup sees either the whole previous generation or
// the whole committed one.
func TestFIBTransactionAtomicity(t *testing.T) {
	f := NewFIB()
	tx := f.Begin()
	tx.Set(1, FIBEntry{Out: 1, Alt: -1, AltVia: -1})
	tx.Set(2, FIBEntry{Out: 2, Alt: -1, AltVia: -1})
	tx.Commit()
	if f.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", f.Generation())
	}

	// Stage a correlated update of both entries...
	tx = f.Begin()
	tx.SetAlt(1, 9, 9)
	tx.SetAlt(2, 9, 9)
	// ...not yet visible before Commit.
	if e, _ := f.Lookup(1); e.Alt != -1 {
		t.Fatalf("staged write visible before commit: %+v", e)
	}
	tx.Commit()
	e1, _ := f.Lookup(1)
	e2, _ := f.Lookup(2)
	if e1.Alt != 9 || e2.Alt != 9 {
		t.Fatalf("committed writes not visible: %+v %+v", e1, e2)
	}
	if f.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", f.Generation())
	}
}

// TestFIBCleanCommitKeepsGeneration: a transaction that changes nothing
// effective publishes nothing.
func TestFIBCleanCommitKeepsGeneration(t *testing.T) {
	f := NewFIB()
	f.Set(1, FIBEntry{Out: 1, Alt: 3, AltVia: 7})
	gen := f.Generation()

	tx := f.Begin()
	if !tx.SetAlt(1, 3, 7) {
		t.Fatal("SetAlt on existing entry reported missing")
	}
	if tx.SetAlt(42, 1, 1) {
		t.Fatal("SetAlt on missing entry reported success")
	}
	if got := tx.Commit(); got != gen {
		t.Fatalf("no-op commit moved generation %d -> %d", gen, got)
	}
}

// TestFIBConcurrentCommitLookup is the -race stress for the FE/daemon
// split: readers hammer Lookup while writers commit batched generations.
// Each committed generation keeps the invariant Alt == Out+1 across both
// entries, so any torn read surfaces as a broken pair.
func TestFIBConcurrentCommitLookup(t *testing.T) {
	f := NewFIB()
	tx := f.Begin()
	tx.Set(1, FIBEntry{Out: 0, Alt: 1, AltVia: 1})
	tx.Set(2, FIBEntry{Out: 0, Alt: 1, AltVia: 1})
	tx.Commit()

	const commits = 2000
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				e1, ok1 := f.Lookup(1)
				e2, ok2 := f.Lookup(2)
				if !ok1 || !ok2 {
					t.Error("entry vanished mid-run")
					return
				}
				if e1.Alt != e1.Out+1 || e2.Alt != e2.Out+1 {
					t.Errorf("torn read: %+v %+v", e1, e2)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < commits; i++ {
				tx := f.Begin()
				// Disjoint per-writer value ranges: every staged entry
				// differs from the incumbent (whichever writer published
				// it), so identical-entry skipping never cleans a commit
				// and the generation count below stays exact.
				out := w*7 + i%7 + 1
				tx.Set(1, FIBEntry{Out: out, Alt: out + 1, AltVia: 1})
				tx.Set(2, FIBEntry{Out: out, Alt: out + 1, AltVia: 1})
				tx.Commit()
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if got := f.Generation(); got != 1+2*commits {
		t.Fatalf("generation = %d, want %d (one bump per dirty commit)", got, 1+2*commits)
	}
}

// TestFIBPublishedGenerationNeverWritten: once published, a generation's
// map is never written again, which is what lets Lookup read it without a
// lock. It keeps every generation Lookup could have loaded, with a copy
// of its map, while each writer runs — the single-shot Set, SetAlt and
// ClearAlt, dirty transactions staging all four kinds of change, clean
// ones — and requires every kept map to still equal its copy. This is the
// deterministic form of what TestFIBConcurrentCommitLookup catches only
// under -race.
func TestFIBPublishedGenerationNeverWritten(t *testing.T) {
	entry := func(out int) FIBEntry { return FIBEntry{Out: out, Alt: -1, AltVia: -1} }
	type kept struct {
		g       *fibGen
		gen     uint64
		entries map[int32]FIBEntry
	}
	f := NewFIB()
	var published []kept
	keep := func() {
		g := f.cur.Load()
		published = append(published, kept{g, g.gen, maps.Clone(g.entries)})
	}
	keep() // the empty generation every new FIB starts from
	steps := []struct {
		name string
		run  func()
	}{
		{"install", func() {
			tx := f.Begin()
			for dst := int32(1); dst <= 4; dst++ {
				tx.Set(dst, entry(int(dst)))
			}
			tx.Commit()
		}},
		{"FIB.Set", func() { f.Set(5, entry(5)) }},
		{"FIB.SetAlt", func() { f.SetAlt(1, 2, 7) }},
		{"FIB.ClearAlt", func() { f.ClearAlt(1) }},
		{"dirty transaction", func() {
			tx := f.Begin()
			tx.Set(2, entry(9))
			tx.SetAlt(3, 1, 1)
			tx.ClearAlt(5)
			tx.Delete(4)
			tx.Commit()
		}},
		{"clean transaction", func() {
			tx := f.Begin()
			tx.Set(2, entry(9))
			tx.SetAlt(3, 1, 1)
			tx.Delete(42)
			tx.Commit()
		}},
	}
	for _, step := range steps {
		step.run()
		for _, k := range published {
			if k.g.gen != k.gen || !maps.Equal(k.g.entries, k.entries) {
				t.Fatalf("%s wrote published generation %d: %v, published as %v", step.name, k.gen, k.g.entries, k.entries)
			}
		}
		keep()
	}
	if got := f.Generation(); got != 5 {
		t.Errorf("generation %d after five dirty commits and a clean one, want 5", got)
	}
}

// TestFIBWritersNeverLoseAnUpdate: the single-shot writers and
// transactions serialize on the writer lock, so a FIB.Set that lands while
// a transaction is open publishes after it instead of being overwritten by
// its Commit. Two writers race, each installing destinations the other
// never touches; every install must survive and count one generation.
func TestFIBWritersNeverLoseAnUpdate(t *testing.T) {
	const n = 500
	e := FIBEntry{Out: 1, Alt: -1, AltVia: -1}
	f := NewFIB()
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for dst := int32(0); dst < n; dst++ {
			f.Set(dst, e)
		}
	}()
	go func() {
		defer writers.Done()
		for dst := int32(n); dst < 2*n; dst++ {
			tx := f.Begin()
			tx.Set(dst, e)
			tx.Commit()
		}
	}()
	writers.Wait()
	if f.Len() != 2*n || f.Generation() != 2*n {
		t.Fatalf("%d entries at generation %d after %d installs: updates were lost", f.Len(), f.Generation(), 2*n)
	}
}

// TestFIBDelete: withdrawing a route removes the entry (a lookup must
// drop as no-route, not follow a stale path) and publishes a generation;
// re-withdrawing an absent entry stays clean.
func TestFIBDelete(t *testing.T) {
	f := NewFIB()
	f.Set(1, FIBEntry{Out: 1, Alt: -1, AltVia: -1})
	gen := f.Generation()

	tx := f.Begin()
	tx.Delete(1)
	if !tx.Dirty() {
		t.Error("Delete of a present entry left the transaction clean")
	}
	if got := tx.Commit(); got != gen+1 {
		t.Fatalf("withdraw commit generation = %d, want %d", got, gen+1)
	}
	if _, ok := f.Lookup(1); ok {
		t.Fatal("withdrawn entry still resolves")
	}

	tx = f.Begin()
	tx.Delete(1)
	if tx.Dirty() {
		t.Error("Delete of an absent entry dirtied the transaction")
	}
	if got := tx.Commit(); got != gen+1 {
		t.Errorf("clean re-withdraw moved generation %d -> %d", gen+1, got)
	}
}

// TestFIBSetIdenticalIsClean: re-staging the incumbent entry must not
// dirty the transaction — unchanged routers publish no new generation,
// which is what keeps fib_swap spans (and generation counts) meaningful
// as "forwarding actually changed here" signals.
func TestFIBSetIdenticalIsClean(t *testing.T) {
	f := NewFIB()
	e := FIBEntry{Out: 3, Alt: 5, AltVia: 2}
	f.Set(7, e)
	gen := f.Generation()

	tx := f.Begin()
	tx.Set(7, e)
	if tx.Dirty() {
		t.Error("identical Set dirtied the transaction")
	}
	if got := tx.Commit(); got != gen {
		t.Errorf("clean commit moved generation %d -> %d", gen, got)
	}

	tx = f.Begin()
	tx.Set(7, FIBEntry{Out: 4, Alt: 5, AltVia: 2})
	if !tx.Dirty() {
		t.Error("changed Set left the transaction clean")
	}
	if got := tx.Commit(); got != gen+1 {
		t.Errorf("dirty commit generation = %d, want %d", got, gen+1)
	}
}
