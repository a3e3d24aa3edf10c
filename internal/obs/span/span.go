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
// The record path follows the same shed-not-stall discipline as the audit
// recorder: a finished span is one fixed-size record offered to a
// ring.Drainer — no allocation, no mutex, no formatting — whose drain
// goroutine, the collector, writes JSONL and the span_* metrics. A
// disabled tracer costs one atomic load per Start.
package span

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/ring"
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

// Record is one finished span as drained from the rings and written to
// the JSONL log. The numeric attribute fields are typed by span-name
// convention (the convention each instrumentation site documents):
//
//	conv_link_down:   Node = -1, A/B = link endpoints, V = virtual event time (s)
//	conv_link_up:     Node = -1, A/B = link endpoints, V = virtual event time (s)
//	route_recompute:  A/B = link endpoints, V = dirty destinations recomputed
//	dest_recompute:   Node = destination AS
//	daemon_epoch:     Node = AS, A = destinations refreshed
//	fib_commit:       Node = router, A = published generation
//	fib_swap:         Node = router, A = published generation
//	bgp_session_down: A/B = link endpoints, V = virtual reconvergence time (s)
//	bgp_session_up:   A/B = link endpoints, V = virtual reconvergence time (s)
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

// Tracer assigns span identities, timestamps spans on one monotonic
// clock, and owns the rings finished spans are pushed into. A nil
// *Tracer is valid and permanently disabled, so instrumented code can
// hold an optional tracer without nil checks.
type Tracer struct {
	enabled atomic.Bool
	ids     atomic.Uint64
	epoch   time.Time
	clock   func() int64 // nil = TSC or monotonic wall clock since epoch
	// tscEpoch/tscScale are the calibrated RDTSC clock (see clock.go);
	// tscScale 0 means fall back to time.Since(epoch).
	tscEpoch int64
	tscScale uint64

	// rings carries finished spans to the collector, keyed by span ID so
	// concurrent producers spread over segments. Order across segments
	// does not matter: every Record carries its own timestamps and parent
	// link, and the analyzer reassembles trees by ID.
	rings *ring.Drainer[Record]
	// Producers read the fields above for every span, and the collector
	// writes its own for every record: keep them a cache line apart.
	_ [64]byte

	collector
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

// now reads the tracer clock: the calibrated TSC when available, the
// runtime monotonic clock otherwise (see clock.go).
func (t *Tracer) now() int64 {
	if t.clock != nil {
		return t.clock()
	}
	if t.tscScale != 0 {
		d := rdtsc() - t.tscEpoch
		if d < 0 {
			// Tiny cross-core TSC skew can read before the epoch sample.
			d = 0
		}
		hi, lo := bits.Mul64(uint64(d), t.tscScale)
		return int64(hi<<32 | lo>>32)
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

// End finishes the span and pushes its fixed-size record into a ring
// segment. On a full segment it yields once (counted as backpressure),
// retries, and sheds the record (counted as dropped) rather than stall
// the caller — route recomputation and FIB commits never block on their
// own instrumentation.
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
	t.rings.Offer(s.id, &rec, nil)
}
