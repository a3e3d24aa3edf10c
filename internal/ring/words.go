package ring

import "sync/atomic"

// Words is a single-writer overwriting ring of fixed-size records, each
// stride atomic 64-bit words, interleaved so one record shares a cache
// line. Exactly one goroutine may call Put; any number may read. Put
// stores the record's words and only then advances the cursor, and
// never waits for readers: it overwrites the oldest record. Readers
// therefore copy first and re-load the cursor afterwards to find out
// which of the copied records the writer may have been inside.
type Words struct {
	stride uint64
	mask   uint64
	words  []atomic.Uint64
	cur    atomic.Uint64 // records ever written; index of the next write
}

// Init sizes the ring for capacity records (rounded up to a power of
// two, at least 2) of stride words each. Call it before the ring is
// shared.
func (r *Words) Init(capacity, stride int) {
	capacity = ceilPow2(max(capacity, 2))
	r.stride = uint64(stride)
	r.mask = uint64(capacity - 1)
	r.words = make([]atomic.Uint64, capacity*stride)
}

// Put writes one record. len(rec) must be the ring's stride.
func (r *Words) Put(rec ...uint64) {
	i := r.cur.Load()
	base := (i & r.mask) * r.stride
	slot := r.words[base : base+r.stride]
	rec = rec[:len(slot)]
	for k := range slot {
		slot[k].Store(rec[k])
	}
	r.cur.Store(i + 1)
}

// Snapshot returns the retained records, oldest first, stride words
// each.
func (r *Words) Snapshot() []uint64 {
	end := r.cur.Load()
	lo := uint64(0)
	if capacity := r.mask + 1; end > capacity {
		lo = end - capacity
	}
	return r.read(lo, end)
}

// read copies records lo..end-1 (end no later than a cursor value the
// caller loaded), then re-loads the cursor and discards every copied
// index the writer could have been inside meanwhile. With the cursor at
// c the writer may be storing record c, whose slot is also record
// c-capacity's, before it advances the cursor — so indices up to
// c-capacity are unsafe even if the cursor never moved, and a snapshot
// of a wrapped ring holds at most capacity-1 records.
func (r *Words) read(lo, end uint64) []uint64 {
	out := make([]uint64, 0, (end-lo)*r.stride)
	for i := lo; i < end; i++ {
		base := (i & r.mask) * r.stride
		slot := r.words[base : base+r.stride]
		for k := range slot {
			out = append(out, slot[k].Load())
		}
	}
	safeLo := uint64(0)
	if c, capacity := r.cur.Load(), r.mask+1; c+1 > capacity {
		safeLo = c + 1 - capacity
	}
	if safeLo > lo {
		drop := min(safeLo-lo, end-lo) * r.stride
		out = append(out[:0], out[drop:]...)
	}
	return out
}
