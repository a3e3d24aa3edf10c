// Package eventq provides a small binary-heap event queue used by the
// discrete-event simulators in this repository (internal/netsim and
// internal/testbed).
//
// Events are ordered by time; ties are broken by insertion sequence so that
// simulations are fully deterministic for a given seed.
package eventq

// Event is a scheduled callback. The payload is opaque to the queue.
type Event struct {
	// Time is the simulation time at which the event fires, in seconds.
	Time float64
	// Kind is an application-defined discriminator.
	Kind int
	// Data is an application-defined payload.
	Data any

	seq      uint64
	index    int
	canceled bool
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Queue is a min-heap of events keyed by (Time, insertion order).
// The zero value is ready to use. Queue is not safe for concurrent use.
type Queue struct {
	heap []*Event
	seq  uint64
}

// Len returns the number of entries in the heap. Canceled events that have
// not yet been popped are counted, though Pop skips them; use Empty to test
// for live events.
func (q *Queue) Len() int { return len(q.heap) }

// Empty reports whether no live events remain.
func (q *Queue) Empty() bool {
	q.drainCanceled()
	return len(q.heap) == 0
}

// Push schedules an event at time t and returns a handle that can be used
// with Cancel.
func (q *Queue) Push(t float64, kind int, data any) *Event {
	e := &Event{Time: t, Kind: kind, Data: data, seq: q.seq}
	q.seq++
	q.heap = append(q.heap, e)
	e.index = len(q.heap) - 1
	q.up(e.index)
	return e
}

// Reschedule moves a pending event to time t in place. The event takes the
// next insertion sequence number, so events pop exactly as they would after
// Cancel(e) and a Push of the same Kind and Data at t; but nothing is
// allocated and no canceled entry is left behind. Rescheduling an event that
// has been popped or canceled panics.
func (q *Queue) Reschedule(e *Event, t float64) {
	if e.canceled || e.index < 0 || e.index >= len(q.heap) || q.heap[e.index] != e {
		panic("eventq: Reschedule of an event that is not pending")
	}
	e.Time = t
	e.seq = q.seq
	q.seq++
	q.down(e.index)
	q.up(e.index)
}

// Requeue schedules e, an event Pop returned, again at time t with the
// payload data. It takes the next insertion sequence number, so events pop
// exactly as after a Push of e's Kind and data at t; but nothing is
// allocated. A simulator with one recurring event (the next arrival, the
// next control epoch) keeps a single Event for it. Requeueing an event
// that is pending or was canceled panics.
func (q *Queue) Requeue(e *Event, t float64, data any) {
	if e.canceled || e.index >= 0 {
		panic("eventq: Requeue of an event that Pop did not return")
	}
	e.Time, e.Data, e.seq = t, data, q.seq
	q.seq++
	q.heap = append(q.heap, e)
	e.index = len(q.heap) - 1
	q.up(e.index)
}

// Pop removes and returns the earliest live event, or nil if the queue is
// empty. Canceled events are discarded transparently.
func (q *Queue) Pop() *Event {
	for len(q.heap) > 0 {
		e := q.heap[0]
		q.remove(0)
		if !e.canceled {
			return e
		}
	}
	return nil
}

// Cancel marks an event as canceled. It is safe to cancel an event that has
// already fired or been canceled; those calls are no-ops.
func (q *Queue) Cancel(e *Event) {
	if e != nil {
		e.canceled = true
	}
}

func (q *Queue) drainCanceled() {
	for len(q.heap) > 0 && q.heap[0].canceled {
		q.remove(0)
	}
}

func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q.swap(i, child)
		i = child
	}
}

func (q *Queue) remove(i int) {
	n := len(q.heap) - 1
	q.swap(i, n)
	q.heap[n].index = -1
	q.heap = q.heap[:n]
	if i < n {
		q.down(i)
		q.up(i)
	}
}
