package ring

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// never is a poll period no test outlives: the drain goroutine then
// moves only when a barrier tells it to, which makes every count below
// exact.
const never = time.Hour

// sinkOf is a Drainer owner in miniature, like the audit recorder: it
// keeps what process and after saw. Only the drain goroutine writes it;
// the test reads it after a barrier, which orders the two.
type sinkOf struct {
	seen []uint64
	// barriers records each after call's closing argument.
	barriers []bool
	load     Load
	err      error
}

func (s *sinkOf) process(v *uint64) { s.seen = append(s.seen, *v) }

func (s *sinkOf) after(closing bool, load Load) error {
	s.barriers = append(s.barriers, closing)
	s.load = load
	return s.err
}

func offer(d *Drainer[uint64], key uint64, vals ...uint64) {
	d.Offer(key, &vals[0], vals[1:])
}

// TestFlushSeesEverythingOfferedBefore: a barrier returns only once the
// drain goroutine has processed every record offered before it and has
// run the owner's after function for that barrier.
func TestFlushSeesEverythingOfferedBefore(t *testing.T) {
	var s sinkOf
	d := NewDrainer(4, 64, never, s.process, s.after)
	defer d.Close()
	const n = 100
	for v := uint64(0); v < n; v++ {
		offer(d, v, v)
	}
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(s.seen) != n {
		t.Fatalf("Wait returned with %d of %d records processed", len(s.seen), n)
	}
	if len(s.barriers) != 1 || s.barriers[0] {
		t.Fatalf("after saw closing=%v, want one non-closing barrier", s.barriers)
	}
	if s.load != (Load{}) {
		t.Fatalf("load = %+v, want nothing shed", s.load)
	}
	offer(d, 0, n)
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(s.seen) != n+1 || len(s.barriers) != 2 {
		t.Fatalf("second Wait returned with %d records processed, barriers %v", len(s.seen), s.barriers)
	}
}

// TestKeyKeepsOrder: records offered under one key come out in the order
// they went in, whatever else is offered in between and however many
// segments there are — audit's per-journey FIFO.
func TestKeyKeepsOrder(t *testing.T) {
	var s sinkOf
	d := NewDrainer(8, 2048, never, s.process, s.after)
	defer d.Close()
	const keys, perKey = 16, 100
	for i := uint64(0); i < perKey; i++ {
		for k := uint64(0); k < keys; k++ {
			offer(d, k, k<<32|i)
		}
	}
	d.Wait()
	if len(s.seen) != keys*perKey {
		t.Fatalf("processed %d records, want %d", len(s.seen), keys*perKey)
	}
	next := map[uint64]uint64{}
	for _, v := range s.seen {
		k, i := v>>32, v&0xffffffff
		if i != next[k] {
			t.Fatalf("key %d: record %d drained where %d was due", k, i, next[k])
		}
		next[k]++
	}
}

// TestFullSegmentSheds: with the drain goroutine asleep a full segment
// costs the producer one counted yield and one counted drop per record,
// and never blocks it.
func TestFullSegmentSheds(t *testing.T) {
	var s sinkOf
	d := NewDrainer(1, 2, never, s.process, s.after)
	defer d.Close()
	for v := uint64(0); v < 10; v++ {
		offer(d, 0, v)
	}
	d.Wait()
	if len(s.seen) != 2 || s.seen[0] != 0 || s.seen[1] != 1 {
		t.Fatalf("processed %v, want the first two records", s.seen)
	}
	if s.load.Dropped != 8 || s.load.Backpressure != 8 {
		t.Fatalf("load = %+v, want 8 dropped after 8 yields", s.load)
	}
}

// TestOversizeGroupIsDroppedNotRetried: a group no segment can hold is
// not congestion — it is dropped at once, without the yield and the
// backpressure count — and what follows it is recorded as usual.
func TestOversizeGroupIsDroppedNotRetried(t *testing.T) {
	var s sinkOf
	d := NewDrainer(1, 4, never, s.process, s.after)
	defer d.Close()
	offer(d, 0, 1, 2, 3, 4, 5, 6)
	offer(d, 0, 7, 8)
	d.Wait()
	if s.load.Dropped != 6 || s.load.Backpressure != 0 {
		t.Fatalf("load = %+v, want 6 dropped and no backpressure", s.load)
	}
	if len(s.seen) != 2 || s.seen[0] != 7 || s.seen[1] != 8 {
		t.Fatalf("processed %v, want the short group [7 8]", s.seen)
	}
}

// TestCloseIsIdempotentAndKeepsItsError: Close runs the closing barrier
// once; every later Close or Wait returns what that barrier returned,
// and offers after Close neither block nor panic.
func TestCloseIsIdempotentAndKeepsItsError(t *testing.T) {
	s := sinkOf{err: errors.New("sink down")}
	d := NewDrainer(2, 8, never, s.process, s.after)
	offer(d, 0, 1)
	if err := d.Wait(); err != s.err {
		t.Fatalf("Wait = %v, want the owner's error", err)
	}
	offer(d, 0, 2)
	for i := 0; i < 2; i++ {
		if err := d.Close(); err != s.err {
			t.Fatalf("Close #%d = %v, want the owner's error", i+1, err)
		}
	}
	if err := d.Wait(); err != s.err {
		t.Fatalf("Wait after Close = %v, want the retained error", err)
	}
	if len(s.seen) != 2 {
		t.Fatalf("Close processed %d of 2 records", len(s.seen))
	}
	if len(s.barriers) != 2 || s.barriers[0] || !s.barriers[1] {
		t.Fatalf("after saw closing=%v, want [false true]", s.barriers)
	}
	for v := uint64(0); v < 100; v++ {
		offer(d, v, v)
	}
}

// TestSaturatingProducerCannotStarveABarrier: process itself offers a
// record for every record it is given, so no sweep ever finds the
// segments empty; the barrier must come back all the same, after the
// bounded number of passes.
func TestSaturatingProducerCannotStarveABarrier(t *testing.T) {
	var d *Drainer[uint64]
	processed := 0
	d = NewDrainer(1, 4, never, func(v *uint64) {
		processed++
		next := *v + 1
		d.Offer(0, &next, nil)
	}, func(bool, Load) error { return nil })
	defer d.Close()
	offer(d, 0, 0)
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if processed != 1024 {
		t.Fatalf("barrier returned after %d passes, want the bound of 1024", processed)
	}
}

// TestConcurrentOffers: producers on their own goroutines, the drain
// goroutine on its poll, and a Close at the end: every record is either
// processed once or counted as shed.
func TestConcurrentOffers(t *testing.T) {
	var s sinkOf
	d := NewDrainer(4, 64, 200*time.Microsecond, s.process, s.after)
	const producers, per = 4, 5000
	var wg sync.WaitGroup
	for p := uint64(0); p < producers; p++ {
		wg.Add(1)
		go func(p uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				offer(d, p, p<<32|i)
			}
		}(p)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := int64(len(s.seen)) + s.load.Dropped; got != producers*per {
		t.Fatalf("processed %d + dropped %d != offered %d", len(s.seen), s.load.Dropped, producers*per)
	}
	next := map[uint64]uint64{}
	for _, v := range s.seen {
		p, i := v>>32, v&0xffffffff
		if i < next[p] {
			t.Fatalf("producer %d: record %d processed after %d", p, i, next[p]-1)
		}
		next[p] = i + 1
	}
}
