// Package span is the causal tracing layer of the observability stack: a
// low-overhead recorder of *spans* — named intervals with monotonic
// timestamps, parent links, and typed numeric attributes — built for the
// control-plane convergence pipeline the metrics in internal/obs cannot
// time. A link failure opens a root span; the incremental route recompute
// (internal/bgp), every per-destination dirty recompute, the daemon
// control epochs and FIB transactions (internal/core), and the data-plane
// generation swaps (internal/dataplane) each emit child spans, so one
// trace shows exactly where the LinkDown → recompute → FIB commit →
// generation-swap race against local deflection spends its time.
//
// The control path emits a few thousand spans a run, not one per packet,
// so the record path is plain: End appends a fixed-size record to a
// slice under one mutex, and Flush and Close write the batch as JSONL
// outside that lock, so a producer never waits on the writer. A disabled
// tracer costs one atomic load per Start.
package span

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonl"
)

// Context is a span's causal identity: the trace (root span) it belongs
// to and its own span ID, the pair children link their Parent to. The
// zero Context is "no parent": starting a span under it makes a root.
type Context struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context names a live span.
func (c Context) Valid() bool { return c.Span != 0 }

// Record is one finished span as written to the JSONL log. The numeric
// attribute fields are typed by span-name convention (the convention each
// instrumentation site documents):
//
//	conv_link_down:  Node = -1, A/B = link endpoints, V = virtual event time (s)
//	conv_link_up:    Node = -1, A/B = link endpoints, V = virtual event time (s)
//	route_recompute: A/B = link endpoints, V = destinations recomputed or restored
//	dest_recompute:  Node = destination AS
//	daemon_epoch:    Node = AS, A = destinations refreshed
//	fib_commit:      Node = router, A = published generation
//	fib_swap:        Node = router, A = published generation
type Record struct {
	// Trace is the root span's ID; every span of one causal tree shares it.
	Trace uint64 `json:"trace"`
	// ID is the span's own identity; Parent links it to its cause (0 for
	// roots).
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name identifies the pipeline stage: one snake_case literal per Start
	// site (the table above), so the analyzer's stage vocabulary is closed.
	Name string `json:"name"`
	// Start and End are nanoseconds on the tracer's monotonic clock; the
	// origin is the tracer's creation, so only differences are meaningful.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Node is the acting AS or router (-1 when not applicable).
	Node int32 `json:"node"`
	// A, B and V are the span-typed operands (see table above).
	A int64   `json:"a,omitempty"`
	B int64   `json:"b,omitempty"`
	V float64 `json:"v,omitempty"`
}

// Duration returns the span's length on the tracer clock.
func (r Record) Duration() time.Duration { return time.Duration(r.End - r.Start) }

// Span is one live interval. It is a value, handed out by Start and
// finished by End; it never escapes to the heap on the record path. The
// exported fields are the typed attributes — set them between Start and
// End. A zero Span (from a disabled tracer) is valid and End is a no-op.
type Span struct {
	t      *Tracer
	name   string
	trace  uint64
	id     uint64
	parent uint64
	start  int64

	// Node is the acting AS or router; A, B, V the operands (see Record).
	Node int32
	A, B int64
	V    float64
}

// Context returns the span's identity for parenting children. The zero
// Span returns the zero Context, so children of a disabled span are
// themselves roots-of-nothing and cost only the disabled-path check.
func (s *Span) Context() Context { return Context{Trace: s.trace, Span: s.id} }

// Options configure a Tracer. The zero value counts spans and writes
// none.
type Options struct {
	// Writer, when non-nil, receives one JSONL line per finished span at
	// each Flush and at Close; until then the records wait in memory.
	// Buffering and closing the underlying file are the caller's job.
	Writer io.Writer

	// clock overrides the monotonic timestamp source (nanoseconds since
	// an arbitrary origin) for this package's tests; nil uses the wall
	// clock's monotonic reading since tracer creation.
	clock func() int64
}

// Stats is a snapshot of a tracer's counters.
type Stats struct {
	// Records counts spans ended while the tracer was open; Roots counts
	// the subset that were trace roots (failure events, for the
	// convergence instrumentation).
	Records uint64
	Roots   uint64
}

// Tracer assigns span identities, timestamps spans on one monotonic
// clock, and keeps finished spans until Flush writes them. A nil
// *Tracer is valid and permanently disabled, so instrumented code can
// hold an optional tracer without nil checks.
type Tracer struct {
	enabled atomic.Bool
	ids     atomic.Uint64
	epoch   time.Time
	clock   func() int64 // nil = monotonic wall clock since epoch
	sink    *jsonl.Sink  // nil = count only

	// mu guards what End touches: the pending records, the counters and
	// the closed latch. Nothing slow runs under it.
	mu      sync.Mutex
	pending []Record
	stats   Stats
	closed  bool

	// flushMu serializes Flush and Close, so a Flush returns only once
	// every span ended before it is on the sink. spare is the previous
	// batch's slice, handed back to pending at the next swap so a steady
	// tracer stops allocating.
	flushMu sync.Mutex
	spare   []Record
}

// New builds an enabled tracer from options. Call Close to write the
// spans still pending.
func New(o Options) *Tracer {
	t := &Tracer{epoch: time.Now(), clock: o.clock}
	if o.Writer != nil {
		t.sink = jsonl.New(o.Writer)
	}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether Start records anything; it is the one-atomic-
// load guard that keeps the disabled path at a few nanoseconds.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled turns recording on or off without tearing the tracer down.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// now reads the tracer clock.
func (t *Tracer) now() int64 {
	if t.clock != nil {
		return t.clock()
	}
	return int64(time.Since(t.epoch))
}

// StartRoot opens a root span: a new trace whose ID doubles as the trace
// ID. node is the acting AS or router (-1 when not applicable). The
// disabled check is in this wrapper so it inlines to one atomic load.
func (t *Tracer) StartRoot(name string, node int32) Span {
	if t == nil || !t.enabled.Load() {
		return Span{}
	}
	return t.startLive(name, Context{}, node)
}

// Start opens a child span under parent. With an invalid (zero) parent it
// opens a root, so call sites need not special-case the first span of a
// causal chain.
func (t *Tracer) Start(name string, parent Context, node int32) Span {
	if t == nil || !t.enabled.Load() {
		return Span{}
	}
	return t.startLive(name, parent, node)
}

// startLive is the enabled half of Start (t known non-nil, recording on).
func (t *Tracer) startLive(name string, parent Context, node int32) Span {
	id := t.ids.Add(1)
	trace := parent.Trace
	if !parent.Valid() {
		trace = id
	}
	return Span{
		t: t, name: name,
		trace: trace, id: id, parent: parent.Span,
		start: t.now(), Node: node,
	}
}

// End finishes the span: it counts the span and, when the tracer has a
// Writer, queues its record for the next Flush. A span ended after Close
// is neither counted nor written.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	s.t.record(s)
}

// record is the enabled half of End.
func (t *Tracer) record(s *Span) {
	rec := Record{
		Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, End: t.now(),
		Node: s.Node, A: s.A, B: s.B, V: s.V,
	}
	t.mu.Lock()
	if !t.closed {
		t.stats.Records++
		if rec.Parent == 0 {
			t.stats.Roots++
		}
		if t.sink != nil {
			t.pending = append(t.pending, rec)
		}
	}
	t.mu.Unlock()
}

// Flush writes every span ended before the call to the sink and returns
// the first sink error seen so far. Producers keep recording while it
// writes.
func (t *Tracer) Flush() error {
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	return t.flushLocked()
}

// flushLocked swaps the pending batch out under mu and encodes it with
// mu released (flushMu held).
func (t *Tracer) flushLocked() error {
	if t.sink == nil {
		return nil
	}
	t.mu.Lock()
	batch := t.pending
	t.pending = t.spare[:0]
	t.mu.Unlock()
	for i := range batch {
		t.sink.Encode(&batch[i])
	}
	t.spare = batch
	return t.sink.Err()
}

// Close disables the tracer, writes the spans still pending, and returns
// the first sink error. Spans still live at Close are harmless: their End
// is dropped. Closing twice returns the retained error.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.enabled.Store(false)
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return t.flushLocked()
}

// Stats returns a snapshot of the tracer's counters. A nil tracer
// returns zeros.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}
