package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// rec is the test payload: it carries a string, like audit's hop record,
// so a copy that is not a plain assignment would show, and a checksum
// over every other field, so a slot read before it was written, or
// overwritten while being read, shows as well.
type rec struct {
	producer, seq uint64 // seq counts a producer's records from 0
	pos, size     uint64 // position in its group, and the group's size
	tag           string
	sum           uint64
}

var tags = [...]string{"a", "bb", "ccc"}

func mkRec(producer, seq, pos, size uint64) rec {
	r := rec{producer: producer, seq: seq, pos: pos, size: size, tag: tags[seq%uint64(len(tags))]}
	r.sum = r.checksum()
	return r
}

func (r *rec) checksum() uint64 {
	return jmix(r.producer<<48^r.seq<<16^r.pos<<8^r.size) ^ uint64(len(r.tag))
}

// streamCheck validates the drained stream of one segment: every record
// intact, each producer's records exactly once and in order, every group
// contiguous.
type streamCheck struct {
	t     *testing.T
	next  map[uint64]uint64 // producer -> next expected seq
	group rec               // last record seen, for group contiguity
	total int
}

func (c *streamCheck) see(r *rec) {
	c.total++
	if r.sum != r.checksum() || r.tag != tags[r.seq%uint64(len(tags))] {
		c.t.Fatalf("record %d drained corrupt: %+v", c.total, *r)
	}
	if want := c.next[r.producer]; r.seq != want {
		c.t.Fatalf("producer %d: drained seq %d, want %d (lost, repeated or reordered)", r.producer, r.seq, want)
	}
	c.next[r.producer]++
	if r.pos > 0 {
		if g := c.group; g.producer != r.producer || g.size != r.size || g.pos+1 != r.pos {
			c.t.Fatalf("group split or interleaved: %+v drained after %+v", *r, g)
		}
	} else if g := c.group; c.total > 1 && g.pos+1 != g.size {
		c.t.Fatalf("group cut short: %+v drained after %+v", *r, g)
	}
	c.group = *r
}

func newSegment(capacity int) *Segment[rec] {
	s := new(Segment[rec])
	s.init(capacity)
	return s
}

// pending is how many records s buffers; exact when no push is running.
func pending(s *Segment[rec]) uint64 { return s.w.Load() - s.r.Load() }

// TestSegmentProducersVsDrainer runs several producers against one
// draining goroutine on a single segment, at capacities small enough
// that the ring wraps on almost every push. Run under -race it is also
// what catches a cursor or slot touched outside the protocol.
func TestSegmentProducersVsDrainer(t *testing.T) {
	const producers, perProducer = 4, 1500
	for _, capacity := range []int{1, 2, 4, 64} {
		s := newSegment(capacity)
		var wg sync.WaitGroup
		var failed atomic.Bool // lets the producers go when the check gives up
		defer failed.Store(true)
		for p := uint64(0); p < producers; p++ {
			wg.Add(1)
			go func(p uint64) {
				defer wg.Done()
				group := make([]rec, 0, capacity)
				for seq := uint64(0); seq < perProducer; {
					// Group sizes cycle 1..capacity, cut to what is left.
					size := min(seq%uint64(capacity)+1, perProducer-seq)
					group = group[:0]
					for pos := uint64(0); pos < size; pos++ {
						group = append(group, mkRec(p, seq+pos, pos, size))
					}
					for !s.TryPushN(&group[0], group[1:]) && !failed.Load() {
						runtime.Gosched() // full: the drainer has to run
					}
					seq += size
				}
			}(p)
		}
		check := &streamCheck{t: t, next: map[uint64]uint64{}}
		for check.total < producers*perProducer {
			if s.Drain(check.see) == 0 {
				runtime.Gosched()
			}
		}
		wg.Wait()
		if n := s.Drain(check.see); n != 0 || pending(s) != 0 {
			t.Fatalf("capacity %d: %d records left after every push was drained", capacity, n)
		}
	}
}

// TestSegmentFullRefuses: a push the ring has no room for returns false
// at once and leaves the ring as it was; room comes back with Drain, and
// the slots are reused across the wrap.
func TestSegmentFullRefuses(t *testing.T) {
	for _, capacity := range []int{1, 2, 4} {
		s := newSegment(capacity)
		check := &streamCheck{t: t, next: map[uint64]uint64{}}
		seq := uint64(0)
		for lap := 0; lap < 3; lap++ {
			for i := 0; i < capacity; i++ {
				r := mkRec(0, seq, 0, 1)
				if !s.TryPushN(&r, nil) {
					t.Fatalf("capacity %d: push %d of a lap refused", capacity, i)
				}
				seq++
			}
			extra := mkRec(0, seq, 0, 1)
			if s.TryPushN(&extra, nil) {
				t.Fatalf("capacity %d: push into a full ring accepted", capacity)
			}
			if got := pending(s); got != uint64(capacity) {
				t.Fatalf("capacity %d: pending = %d after a refused push", capacity, got)
			}
			if n := s.Drain(check.see); n != capacity {
				t.Fatalf("capacity %d: drained %d", capacity, n)
			}
		}
	}
}

// TestSegmentGroupAllOrNothing: a group that does not fit entirely is
// refused entirely, whether the ring is partly full or simply smaller
// than the group.
func TestSegmentGroupAllOrNothing(t *testing.T) {
	s := newSegment(4)
	check := &streamCheck{t: t, next: map[uint64]uint64{}}
	push := func(seq, size uint64) bool {
		group := make([]rec, size)
		for pos := range group {
			group[pos] = mkRec(0, seq+uint64(pos), uint64(pos), size)
		}
		return s.TryPushN(&group[0], group[1:])
	}
	if !push(0, 3) {
		t.Fatal("group of 3 refused by an empty ring of 4")
	}
	if push(3, 2) {
		t.Fatal("group of 2 accepted with one slot free")
	}
	if push(3, 5) {
		t.Fatal("group larger than the ring accepted")
	}
	if got := pending(s); got != 3 {
		t.Fatalf("refused groups left %d records pending, want 3", got)
	}
	if !push(3, 1) {
		t.Fatal("single record refused with one slot free")
	}
	if n := s.Drain(check.see); n != 4 {
		t.Fatalf("drained %d, want 4", n)
	}
	if !push(4, 4) {
		t.Fatal("group of 4 refused by a drained ring of 4")
	}
	s.Drain(check.see)
}

// TestSegmentDrainKeepsSlotsUntilDone: while Drain is still handing out
// records the slots are not the producers' to reuse, so a push from
// inside the callback finds the ring exactly as full as before.
func TestSegmentDrainKeepsSlotsUntilDone(t *testing.T) {
	s := newSegment(2)
	a, b, c := mkRec(0, 0, 0, 1), mkRec(0, 1, 0, 1), mkRec(0, 2, 0, 1)
	if !s.TryPushN(&a, nil) || !s.TryPushN(&b, nil) {
		t.Fatal("filling the ring failed")
	}
	check := &streamCheck{t: t, next: map[uint64]uint64{}}
	s.Drain(func(r *rec) {
		if s.TryPushN(&c, nil) {
			t.Fatal("push accepted into a slot Drain has not released")
		}
		check.see(r)
	})
	if !s.TryPushN(&c, nil) {
		t.Fatal("push refused after Drain released the slots")
	}
	if s.Drain(check.see); check.total != 3 {
		t.Fatalf("drained %d records in all, want 3", check.total)
	}
}
