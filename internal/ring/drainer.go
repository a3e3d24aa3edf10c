package ring

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Barrier tells a Drainer's owner why its after function is being called.
type Barrier uint8

const (
	// Tick: the poll period elapsed; nobody is waiting.
	Tick Barrier = iota
	// Drain: a caller waits for everything offered so far to be processed.
	Drain
	// Flush: as Drain, and the owner should make the result durable.
	Flush
	// Close: as Flush, for the last time; the drain loop exits afterwards.
	Close
)

// Load is the drainer's own accounting, handed to the owner's after
// function so it can mirror it into its stats and metrics.
type Load struct {
	// Dropped counts records shed (a full segment, or a group no segment
	// could ever hold); Backpressure counts full-segment events where
	// the producer yielded once before retrying. Both are cumulative.
	Dropped, Backpressure int64
	// Depth is the number of records pending now; Highwater the largest
	// number found pending at the start of a sweep.
	Depth, Highwater uint64
}

type command struct {
	kind Barrier
	done chan error
}

// Drainer is the cold half of an asynchronous observer. It owns the
// segments, picks one per record key, applies the shed policy on the
// producers' side, and runs the one goroutine that drains: on a short
// poll, and whenever Wait or Close asks for a barrier. Commands travel
// over an unbuffered channel, so a barrier returns only after the drain
// goroutine has swept the segments and run the owner's after function.
type Drainer[T any] struct {
	segs    []Segment[T]
	segMask uint64

	// Hot side: producers touch nothing but these and their segment.
	dropped      atomic.Int64
	backpressure atomic.Int64

	closed atomic.Bool
	cmds   chan command
	done   chan struct{}
	// closeErr is what after(Close) returned; written before done closes.
	closeErr error

	// Drain-goroutine state.
	process   func(*T)
	after     func(Barrier, Load) error
	highwater uint64
}

// NewDrainer builds segments × segmentCap ring slots (both rounded up to
// powers of two) and starts the drain goroutine. process is called on
// that goroutine for every record, in place; after is called on it once
// the segments have been swept, for every poll tick and every barrier,
// and its result is the barrier's result. Everything process and after
// read must be set before NewDrainer is called. Call Close when done.
func NewDrainer[T any](segments, segmentCap int, poll time.Duration, process func(*T), after func(Barrier, Load) error) *Drainer[T] {
	segments = ceilPow2(segments)
	d := &Drainer[T]{
		segs:    make([]Segment[T], segments),
		segMask: uint64(segments - 1),
		cmds:    make(chan command),
		done:    make(chan struct{}),
		process: process,
		after:   after,
	}
	for i := range d.segs {
		d.segs[i].init(segmentCap)
	}
	go d.run(poll)
	return d
}

// Offer pushes the record group h, rest... into the segment key selects,
// so records offered under one key by one goroutine are drained in the
// order they were offered. The caller never blocks: on a full segment
// it counts backpressure, yields once to let the drain goroutine run,
// retries, and sheds the whole group (counted) if the segment is still
// full. A group larger than a segment can never fit and is shed at once.
//
//mifo:hotpath
func (d *Drainer[T]) Offer(key uint64, h *T, rest []T) {
	seg := &d.segs[jmix(key)&d.segMask]
	if seg.TryPushN(h, rest) {
		return
	}
	if 1+len(rest) > len(seg.buf) {
		d.dropped.Add(int64(1 + len(rest)))
		return
	}
	d.backpressure.Add(1)
	runtime.Gosched()
	if seg.TryPushN(h, rest) {
		return
	}
	d.dropped.Add(int64(1 + len(rest)))
}

func (d *Drainer[T]) run(poll time.Duration) {
	defer close(d.done)
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case c := <-d.cmds:
			d.sweep()
			err := d.after(c.kind, d.load())
			if c.kind == Close {
				d.closeErr = err
			}
			c.done <- err
			if c.kind == Close {
				return
			}
		case <-tick.C:
			d.sweep()
			// Nobody waits on a tick; the owner retains its first error
			// and reports it at the next barrier.
			d.after(Tick, d.load())
		}
	}
}

// sweep drains every segment until one full pass finds nothing, bounded
// so a saturating producer cannot starve the command channel.
func (d *Drainer[T]) sweep() {
	for pass := 0; pass < 1024; pass++ {
		if depth := d.depth(); depth > d.highwater {
			d.highwater = depth
		}
		n := 0
		for i := range d.segs {
			n += d.segs[i].Drain(d.process)
		}
		if n == 0 {
			return
		}
	}
}

func (d *Drainer[T]) depth() uint64 {
	var depth uint64
	for i := range d.segs {
		depth += d.segs[i].Pending()
	}
	return depth
}

func (d *Drainer[T]) load() Load {
	return Load{
		Dropped:      d.dropped.Load(),
		Backpressure: d.backpressure.Load(),
		Depth:        d.depth(),
		Highwater:    d.highwater,
	}
}

// Wait runs one barrier through the drain goroutine: everything offered
// before the call is processed, after(kind) runs, and its result is
// returned. Once the drainer is closed Wait returns what Close returned.
func (d *Drainer[T]) Wait(kind Barrier) error {
	c := command{kind: kind, done: make(chan error, 1)}
	select {
	case d.cmds <- c:
		return <-c.done
	case <-d.done:
		return d.closeErr
	}
}

// Close runs the Close barrier and stops the drain goroutine. Later
// calls (and later Waits) return the first call's result. Records
// offered after Close land in the segments and are never drained.
func (d *Drainer[T]) Close() error {
	if d.closed.Swap(true) {
		return d.Wait(Drain)
	}
	return d.Wait(Close)
}
