// Package parallel provides the small set of fork-join helpers used by the
// compute-heavy parts of this repository: per-destination BGP route
// computation, path-diversity counting, and bulk flow simulation.
//
// The helpers are deliberately minimal: a bounded worker pool over an index
// range with deterministic output placement, so results are identical
// regardless of the worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(i) for every i in [0, n) using the given number of
// workers. Work is distributed dynamically (atomic counter) so uneven item
// costs still balance. ForEach returns when all items are done.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map applies fn to every index in [0, n) and collects the results in order.
// It is ForEach with a typed result slice.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}
