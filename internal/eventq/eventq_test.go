package eventq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrder(t *testing.T) {
	var q Queue
	times := []float64{5, 1, 3, 2, 4}
	for i, tm := range times {
		q.Push(tm, i, nil)
	}
	var got []float64
	for !q.Empty() {
		got = append(got, q.Pop().Time)
	}
	want := append([]float64(nil), times...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("pop %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTieBreakFIFO(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(1.0, i, nil)
	}
	for i := 0; i < 10; i++ {
		e := q.Pop()
		if e.Kind != i {
			t.Fatalf("tie-broken pop %d has kind %d, want %d", i, e.Kind, i)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	a := q.Push(1, 1, nil)
	b := q.Push(2, 2, nil)
	c := q.Push(3, 3, nil)
	q.Cancel(b)
	if e := q.Pop(); e != a {
		t.Fatalf("first pop = %+v, want event a", e)
	}
	if e := q.Pop(); e != c {
		t.Fatalf("second pop = %+v, want event c (b canceled)", e)
	}
	if e := q.Pop(); e != nil {
		t.Fatalf("third pop = %+v, want nil", e)
	}
	// Double-cancel and cancel-after-pop are no-ops.
	q.Cancel(b)
	q.Cancel(a)
	q.Cancel(nil)
}

func TestEmptyAfterAllCanceled(t *testing.T) {
	var q Queue
	events := make([]*Event, 5)
	for i := range events {
		events[i] = q.Push(float64(i), i, nil)
	}
	for _, e := range events {
		q.Cancel(e)
	}
	if !q.Empty() {
		t.Fatal("queue with only canceled events should be Empty")
	}
	if e := q.Pop(); e != nil {
		t.Fatalf("pop = %+v, want nil", e)
	}
}

// Property: for any sequence of times, popping yields a non-decreasing order.
func TestQuickSortedPops(t *testing.T) {
	f := func(times []float64) bool {
		var q Queue
		for i, tm := range times {
			q.Push(tm, i, nil)
		}
		prev := math.Inf(-1)
		for !q.Empty() {
			e := q.Pop()
			if e.Time < prev {
				return false
			}
			prev = e.Time
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interleaved push/pop/cancel never loses or duplicates a live event.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		live := map[*Event]bool{}
		for i := 0; i < int(n); i++ {
			switch rng.Intn(3) {
			case 0:
				e := q.Push(rng.Float64(), i, nil)
				live[e] = true
			case 1:
				if e := q.Pop(); e != nil {
					if !live[e] {
						return false // popped a dead or unknown event
					}
					delete(live, e)
				}
			case 2:
				for e := range live {
					q.Cancel(e)
					delete(live, e)
					break
				}
			}
		}
		count := 0
		for !q.Empty() {
			e := q.Pop()
			if !live[e] {
				return false
			}
			delete(live, e)
			count++
		}
		return len(live) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRescheduleMatchesCancelPush runs random schedules on two queues. Each
// keeps one movable handle: the first queue moves it with Reschedule, the
// second with Cancel and a Push of the same kind and payload. Times come
// from a small grid, so many events tie. Both queues must pop the same
// (Time, Kind, Data) sequence, and the first must hold no canceled entry.
func TestRescheduleMatchesCancelPush(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a, b Queue
		var ha, hb *Event // the movable handle on each queue, nil when not pending
		now := 0.0
		at := func() float64 { return now + float64(rng.Intn(8)) }
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				tm := at()
				a.Push(tm, step, step)
				b.Push(tm, step, step)
			case op < 7:
				tm := at()
				if ha == nil {
					ha = a.Push(tm, -1, "move")
					hb = b.Push(tm, -1, "move")
					continue
				}
				a.Reschedule(ha, tm)
				b.Cancel(hb)
				hb = b.Push(tm, -1, "move")
			default:
				ea, eb := a.Pop(), b.Pop()
				if (ea == nil) != (eb == nil) {
					t.Fatalf("seed %d step %d: pops %+v and %+v", seed, step, ea, eb)
				}
				if ea == nil {
					continue
				}
				if ea.Time != eb.Time || ea.Kind != eb.Kind || ea.Data != eb.Data {
					t.Fatalf("seed %d step %d: Reschedule queue popped (%v, %d, %v), Cancel+Push queue (%v, %d, %v)",
						seed, step, ea.Time, ea.Kind, ea.Data, eb.Time, eb.Kind, eb.Data)
				}
				now = ea.Time
				if ea == ha {
					ha, hb = nil, nil
				}
			}
			for _, e := range a.heap {
				if e.canceled {
					t.Fatalf("seed %d step %d: Reschedule left a canceled entry", seed, step)
				}
			}
		}
		for !b.Empty() {
			ea, eb := a.Pop(), b.Pop()
			if ea == nil || ea.Time != eb.Time || ea.Kind != eb.Kind || ea.Data != eb.Data {
				t.Fatalf("seed %d drain: popped %+v and %+v", seed, ea, eb)
			}
		}
		if a.Len() != 0 {
			t.Fatalf("seed %d: Reschedule queue holds %d entries after the other drained", seed, a.Len())
		}
	}
}

// TestRequeueMatchesPush runs random schedules on two queues. Each keeps
// one recurring event: when it pops, the first queue requeues the same
// Event, the second pushes a new one with the same kind and payload. Both
// must pop the same (Time, Kind, Data) sequence, ties included.
func TestRequeueMatchesPush(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a, b Queue
		now := 0.0
		at := func() float64 { return now + float64(rng.Intn(8)) }
		ha := a.Push(0, -1, 0)
		b.Push(0, -1, 0)
		for step := 1; step < 300; step++ {
			if rng.Intn(10) < 5 {
				tm := at()
				a.Push(tm, step, step)
				b.Push(tm, step, step)
				continue
			}
			ea, eb := a.Pop(), b.Pop()
			if ea == nil || eb == nil || ea.Time != eb.Time || ea.Kind != eb.Kind || ea.Data != eb.Data {
				t.Fatalf("seed %d step %d: Requeue queue popped %+v, Push queue %+v", seed, step, ea, eb)
			}
			now = ea.Time
			if ea == ha {
				tm := at()
				a.Requeue(ha, tm, step)
				b.Push(tm, -1, step)
			}
		}
		for !b.Empty() {
			ea, eb := a.Pop(), b.Pop()
			if ea == nil || ea.Time != eb.Time || ea.Kind != eb.Kind || ea.Data != eb.Data {
				t.Fatalf("seed %d drain: popped %+v and %+v", seed, ea, eb)
			}
		}
	}
}

func TestRequeueRejectsPendingAndCanceled(t *testing.T) {
	var q Queue
	pending := q.Push(1, 0, nil)
	canceled := q.Push(2, 0, nil)
	q.Cancel(canceled)
	for name, e := range map[string]*Event{"pending": pending, "canceled": canceled} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Requeue of a %s event did not panic", name)
				}
			}()
			q.Requeue(e, 3, nil)
		}()
	}
}

func TestRequeueAllocatesNothing(t *testing.T) {
	var q Queue
	e := q.Push(0, 0, nil)
	for i := 0; i < 16; i++ {
		q.Push(float64(i), 1, nil)
	}
	tm := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		for q.Pop() != e {
		}
		tm += 0.5
		q.Requeue(e, tm, nil)
		q.Push(tm+1, 1, nil)
	}); n > 1 {
		t.Fatalf("Requeue allocated: %v allocations a cycle, want only the Push", n)
	}
}

func TestRescheduleAllocatesNothing(t *testing.T) {
	var q Queue
	e := q.Push(1, 0, nil)
	for i := 0; i < 16; i++ {
		q.Push(float64(i), 1, nil)
	}
	tm := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		tm += 0.5
		q.Reschedule(e, tm)
	}); n != 0 {
		t.Fatalf("Reschedule allocates %v times a call", n)
	}
}

func TestReschedulePanicsUnlessPending(t *testing.T) {
	var q Queue
	popped := q.Push(1, 0, nil)
	canceled := q.Push(2, 0, nil)
	q.Push(3, 0, nil)
	if q.Pop() != popped {
		t.Fatal("first pop is not the earliest event")
	}
	q.Cancel(canceled)
	for name, e := range map[string]*Event{"popped": popped, "canceled": canceled} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reschedule of a %s event did not panic", name)
				}
			}()
			q.Reschedule(e, 0)
		}()
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	for i := 0; i < 1024; i++ {
		q.Push(rng.Float64(), 0, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.Pop()
		q.Push(e.Time+rng.Float64(), 0, nil)
	}
}
