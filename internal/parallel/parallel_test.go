package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 1000
		seen := make([]atomic.Int32, n)
		ForEach(n, workers, func(i int) {
			seen[i].Add(1)
		})
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-5, 4, func(int) { called = true })
	if called {
		t.Fatal("fn must not be called for n <= 0")
	}
}

func TestMapDeterministicPlacement(t *testing.T) {
	got := Map(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// Property: Map output is independent of worker count.
func TestQuickMapWorkerInvariance(t *testing.T) {
	f := func(n uint8, workers uint8) bool {
		w := int(workers%16) + 1
		serial := Map(int(n), 1, func(i int) int { return 3*i + 1 })
		par := Map(int(n), w, func(i int) int { return 3*i + 1 })
		if len(serial) != len(par) {
			return false
		}
		for i := range serial {
			if serial[i] != par[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkForEach(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForEach(256, 4, func(i int) {
			_ = i * i
		})
	}
}
