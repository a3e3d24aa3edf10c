// Package ring holds the lock-free ring behind the one observer that sits
// on the forwarding path, the audit flight recorder, so the publish
// protocol it depends on is written — and tested — in one place.
//
// Segment and Drainer are the many-writers-one-reader shape: a producer
// copies a fixed-size record into a ring segment and returns; one
// background goroutine drains. A full segment sheds the record instead of
// stalling the producer.
//
// Every cursor, latch and slot is unexported: the orderings below can
// only be broken from inside this package, where its tests catch each
// way of breaking them.
package ring

import (
	"runtime"
	"sync/atomic"
)

// Segment is one multi-producer single-consumer ring: a power-of-two
// buffer, a CAS latch that serializes producers, and atomic cursors.
// Storing w is the release edge that publishes slots to the consumer;
// storing r is the one that hands them back to the producers. The
// consumer never takes the latch.
type Segment[T any] struct {
	buf   []T
	mask  uint64
	latch atomic.Uint32
	w     atomic.Uint64
	// rCache is the producers' stale copy of r (guarded by the latch):
	// the consumer's cursor cache line is touched only when the ring
	// looks full, not on every push.
	rCache uint64
	_      [40]byte // keep the consumer cursor off the producers' cache line
	r      atomic.Uint64
}

func (s *Segment[T]) init(capacity int) {
	capacity = ceilPow2(capacity)
	s.buf = make([]T, capacity)
	s.mask = uint64(capacity - 1)
}

// TryPushN copies h and then every element of rest into the ring as one
// block: either the whole group is buffered, contiguous and in order, or
// none of it. rest may be nil. It returns false without blocking when
// the ring lacks room. Records are copied by assignment, so T may hold
// pointers and strings.
func (s *Segment[T]) TryPushN(h *T, rest []T) bool {
	need := uint64(1 + len(rest))
	if need > uint64(len(s.buf)) {
		return false
	}
	s.lock()
	w := s.w.Load()
	if w+need-s.rCache > uint64(len(s.buf)) {
		s.rCache = s.r.Load()
		if w+need-s.rCache > uint64(len(s.buf)) {
			s.unlock()
			return false
		}
	}
	s.buf[w&s.mask] = *h
	for i := range rest {
		s.buf[(w+1+uint64(i))&s.mask] = rest[i]
	}
	s.w.Store(w + need)
	s.unlock()
	return true
}

// lock spins on the CAS latch. Producers hold it for a handful of plain
// stores, so contention is bounded and brief.
func (s *Segment[T]) lock() {
	for !s.latch.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

func (s *Segment[T]) unlock() { s.latch.Store(0) }

// Drain invokes fn on every buffered record in place, then advances the
// read cursor, and returns the number drained. Only the consumer calls
// it. Processing in place is safe: producers never overwrite a slot
// until r has advanced past it.
func (s *Segment[T]) Drain(fn func(*T)) int {
	r := s.r.Load()
	w := s.w.Load()
	for i := r; i != w; i++ {
		fn(&s.buf[i&s.mask])
	}
	s.r.Store(w)
	return int(w - r)
}

// ceilPow2 rounds n up to a power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// jmix spreads a key over 64 bits (splitmix64 finalizer) for segment
// selection.
func jmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
