package dataplane

import (
	"sync"
	"testing"
)

// lockedFIB replicates the pre-refactor FIB — a map guarded by a
// read-write lock — as the benchmark baseline the generation-swapped
// design is measured against (`make bench`, BenchmarkFIBLookup).
type lockedFIB struct {
	mu      sync.RWMutex
	entries map[int32]FIBEntry
}

func newLockedFIB() *lockedFIB { return &lockedFIB{entries: make(map[int32]FIBEntry)} }

func (f *lockedFIB) Set(dst int32, e FIBEntry) {
	f.mu.Lock()
	f.entries[dst] = e
	f.mu.Unlock()
}

func (f *lockedFIB) SetAlt(dst int32, alt int, via RouterID) {
	f.mu.Lock()
	if e, ok := f.entries[dst]; ok {
		e.Alt = alt
		e.AltVia = via
		f.entries[dst] = e
	}
	f.mu.Unlock()
}

func (f *lockedFIB) Lookup(dst int32) (FIBEntry, bool) {
	f.mu.RLock()
	e, ok := f.entries[dst]
	f.mu.RUnlock()
	return e, ok
}

const benchFIBSize = 4096

func fillFIB(set func(int32, FIBEntry)) {
	for i := int32(0); i < benchFIBSize; i++ {
		set(i, FIBEntry{Out: int(i % 8), Alt: -1, AltVia: -1})
	}
}

// BenchmarkFIBLookup measures the uncontended forwarding-path lookup:
// generation-swapped (one atomic load) vs the RWMutex baseline.
func BenchmarkFIBLookup(b *testing.B) {
	b.Run("lockfree", func(b *testing.B) {
		f := NewFIB()
		tx := f.Begin()
		fillFIB(tx.Set)
		tx.Commit()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := f.Lookup(int32(i) % benchFIBSize); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("locked", func(b *testing.B) {
		f := newLockedFIB()
		fillFIB(f.Set)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := f.Lookup(int32(i) % benchFIBSize); !ok {
				b.Fatal("miss")
			}
		}
	})
}

// BenchmarkFIBLookupContended measures lookup throughput while a daemon
// goroutine continuously rewrites alt ports — the workload of a border
// router forwarding at line speed during control-epoch churn. The
// generation swap keeps readers wait-free; the baseline's readers stall
// behind the writer's lock.
func BenchmarkFIBLookupContended(b *testing.B) {
	b.Run("lockfree", func(b *testing.B) {
		f := NewFIB()
		tx := f.Begin()
		fillFIB(tx.Set)
		tx.Commit()
		stop := make(chan struct{})
		go func() {
			for alt := 0; ; alt++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := f.Begin()
				for d := int32(0); d < benchFIBSize; d += 16 {
					tx.SetAlt(d, alt%8, RouterID(alt%4))
				}
				tx.Commit()
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int32(0)
			for pb.Next() {
				i++
				if _, ok := f.Lookup(i % benchFIBSize); !ok {
					b.Fatal("miss")
				}
			}
		})
		b.StopTimer()
		close(stop)
	})
	b.Run("locked", func(b *testing.B) {
		f := newLockedFIB()
		fillFIB(f.Set)
		stop := make(chan struct{})
		go func() {
			for alt := 0; ; alt++ {
				select {
				case <-stop:
					return
				default:
				}
				for d := int32(0); d < benchFIBSize; d += 16 {
					f.SetAlt(d, alt%8, RouterID(alt%4))
				}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int32(0)
			for pb.Next() {
				i++
				if _, ok := f.Lookup(i % benchFIBSize); !ok {
					b.Fatal("miss")
				}
			}
		})
		b.StopTimer()
		close(stop)
	})
}

// BenchmarkFIBCommit measures publishing one control epoch's batch of alt
// re-selections: one transaction (copy + swap) vs the baseline's
// per-entry write locks.
func BenchmarkFIBCommit(b *testing.B) {
	const batch = 256
	b.Run("tx", func(b *testing.B) {
		f := NewFIB()
		tx := f.Begin()
		fillFIB(tx.Set)
		tx.Commit()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := f.Begin()
			for d := int32(0); d < batch; d++ {
				tx.SetAlt(d, i%8, RouterID(i%4))
			}
			tx.Commit()
		}
	})
	b.Run("perEntryLocked", func(b *testing.B) {
		f := newLockedFIB()
		fillFIB(f.Set)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d := int32(0); d < batch; d++ {
				f.SetAlt(d, i%8, RouterID(i%4))
			}
		}
	})
}
