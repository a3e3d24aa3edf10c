package ring

import (
	"sync"
	"sync/atomic"
	"testing"
)

const testStride = 6 // the widest record in the tree (a tsdb bucket)

// wordOf is what word k of record i holds in these tests, so a record
// put together from two writes, or out of place, is recognisable.
func wordOf(i uint64, k int) uint64 { return i<<3 | uint64(k) }

func putRec(r *Words, i uint64) {
	var rec [testStride]uint64
	for k := range rec {
		rec[k] = wordOf(i, k)
	}
	r.Put(rec[:]...)
}

// windowAt reports how many records words holds, or -1 unless they are
// whole records of consecutive indices starting at first.
func windowAt(words []uint64, first uint64) int {
	if len(words)%testStride != 0 {
		return -1
	}
	for j, w := range words {
		if w != wordOf(first+uint64(j/testStride), j%testStride) {
			return -1
		}
	}
	return len(words) / testStride
}

func newWords(capacity int) *Words {
	r := new(Words)
	r.Init(capacity, testStride)
	return r
}

func TestWordsRoundTripAndWrap(t *testing.T) {
	r := newWords(16)
	if len(r.Snapshot()) != 0 {
		t.Fatal("an empty ring has records")
	}
	for i := uint64(0); i < 10; i++ {
		putRec(r, i)
	}
	if n := windowAt(r.Snapshot(), 0); n != 10 {
		t.Fatalf("snapshot holds %d records from 0, want 10", n)
	}
	for i := uint64(10); i < 1000; i++ {
		putRec(r, i)
	}
	// Once wrapped, a snapshot keeps the newest capacity-1 records.
	if n := windowAt(r.Snapshot(), 1000-15); n != 15 {
		t.Fatalf("snapshot of a wrapped ring of 16 holds %d records from 985, want 15", n)
	}
}

// TestWordsSnapshotLeavesOutTheOpenSlot holds a write open — the words
// stored, the cursor not yet advanced — and snapshots. The slot being
// written is also that of the oldest record the cursor still covers, so
// the snapshot must leave that record out although the cursor never
// moved.
func TestWordsSnapshotLeavesOutTheOpenSlot(t *testing.T) {
	const capacity = 8
	r := newWords(capacity)
	for i := uint64(0); i < 3*capacity; i++ {
		putRec(r, i)
	}
	cur := r.cur.Load()
	base := (cur & r.mask) * r.stride
	for k := uint64(0); k < r.stride; k++ {
		r.words[base+k].Store(^uint64(0)) // the write in progress
	}
	if n := windowAt(r.Snapshot(), cur-capacity+1); n != capacity-1 {
		t.Fatalf("snapshot holds %d records from %d, want %d", n, cur-capacity+1, capacity-1)
	}
}

// TestWordsReadDiscardsWhatWasLapped plays a slow reader: it decided on
// its window, then the writer moved on, then it copied. Everything the
// writer reached since has to go, down to nothing when it lapped the
// whole window.
func TestWordsReadDiscardsWhatWasLapped(t *testing.T) {
	const capacity = 8
	r := newWords(capacity)
	for i := uint64(0); i < capacity; i++ {
		putRec(r, i)
	}
	lo, end := uint64(0), r.cur.Load()
	for i := uint64(capacity); i < capacity+3; i++ {
		putRec(r, i)
	}
	// Records 0..2 are overwritten and record 3's slot is the next write.
	if n := windowAt(r.read(lo, end), 4); n != 4 {
		t.Fatalf("read kept %d records from 4 of a window the writer ate 4 of, want 4", n)
	}
	for i := uint64(capacity + 3); i < 3*capacity; i++ {
		putRec(r, i)
	}
	if got := r.read(lo, end); len(got) != 0 {
		t.Fatalf("read kept %d words of a window the writer lapped entirely", len(got))
	}
}

// TestWordsWriterVsReaders runs the writer flat out against readers
// that snapshot, and readers that ask for the newest record, on a ring
// small enough to be lapped during a copy. Whatever a reader is given
// must be whole records, in place.
func TestWordsWriterVsReaders(t *testing.T) {
	const writes = 300000
	r := newWords(64)
	var stop atomic.Bool
	var wg sync.WaitGroup
	reader := func(read func() []uint64) {
		defer wg.Done()
		for !stop.Load() {
			buf := read()
			if len(buf) == 0 {
				continue
			}
			if first := buf[0] >> 3; windowAt(buf, first) < 0 {
				t.Errorf("window from record %d is torn or out of order: %x", first, buf)
				stop.Store(true)
			}
		}
	}
	wg.Add(4)
	for i := 0; i < 2; i++ {
		go reader(r.Snapshot)
	}
	for i := 0; i < 2; i++ {
		go reader(func() []uint64 {
			end := r.cur.Load()
			if end == 0 {
				return nil
			}
			return r.read(end-1, end)
		})
	}
	for i := uint64(0); i < writes && !stop.Load(); i++ {
		putRec(r, i)
	}
	stop.Store(true)
	wg.Wait()
}
