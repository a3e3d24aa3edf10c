package obs

import (
	"sync"
	"sync/atomic"
)

// EventType classifies a trace event.
type EventType uint8

const (
	// EvDeflect records a packet or flow moved onto its alternative path.
	EvDeflect EventType = iota + 1
	// EvReturn records a deflected flow returning to its default path.
	EvReturn
	// EvTagDrop records a valley-free tag-check drop (Algorithm 1 line 20).
	EvTagDrop
	// EvDrop records any other drop; A carries the reason code.
	EvDrop
	// EvEncap records an IP-in-IP hand-off to an iBGP peer.
	EvEncap
	// EvFIBUpdate records a daemon rewriting a FIB alternative.
	EvFIBUpdate
	// EvEpoch records a control-epoch summary snapshot.
	EvEpoch
	// EvCustom is free for callers; see Note.
	EvCustom
)

// String returns a short event-type name.
func (t EventType) String() string {
	switch t {
	case EvDeflect:
		return "deflect"
	case EvReturn:
		return "return"
	case EvTagDrop:
		return "tag-drop"
	case EvDrop:
		return "drop"
	case EvEncap:
		return "encap"
	case EvFIBUpdate:
		return "fib-update"
	case EvEpoch:
		return "epoch"
	case EvCustom:
		return "custom"
	default:
		return "unknown"
	}
}

// MarshalText renders the type as its name so JSON trace dumps read well.
func (t EventType) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses an event-type name, for consumers of trace dumps.
func (t *EventType) UnmarshalText(b []byte) error {
	for c := EvDeflect; c <= EvCustom; c++ {
		if c.String() == string(b) {
			*t = c
			return nil
		}
	}
	*t = 0
	return nil
}

// Event is one structured trace record. The numeric operand fields are
// type-specific by convention:
//
//	EvDeflect:   Node = deciding router/AS, A = flow or dst id, B = chosen
//	             egress (port or next-hop AS), V = spare capacity (bps)
//	EvReturn:    Node = the AS that had deflected the flow (owner of the
//	             trigger link), A = flow id, V = claimed rate (bps)
//	EvTagDrop:   Node = dropping router, A = dst id
//	EvDrop:      Node = dropping router, A = reason code, B = dst id
//	EvEncap:     Node = encapsulating router, A = dst id, B = outer dst
//	EvFIBUpdate: Node = AS, A = dst id, B = chosen port (-1 = cleared),
//	             V = spare capacity (bps)
//	EvEpoch:     A = active flows, B = flows moved this epoch, V = max
//	             link utilization
//
// Note is optional human-readable detail; formatting it is the caller's
// cost, so build it only when the trace is enabled.
type Event struct {
	// Seq is a 1-based sequence number assigned at emit time.
	Seq uint64 `json:"seq"`
	// Time is in nanoseconds; the origin is the emitter's (wall clock for
	// live systems, virtual time for simulators).
	Time int64     `json:"time_ns"`
	Type EventType `json:"type"`
	Node int32     `json:"node"`
	A    int64     `json:"a,omitempty"`
	B    int64     `json:"b,omitempty"`
	V    float64   `json:"v,omitempty"`
	Note string    `json:"note,omitempty"`
}

// Sink receives every event at emit time (after it is stored in the
// ring). Sinks run synchronously under the trace lock: keep them fast.
type Sink func(Event)

// Trace is a fixed-capacity ring buffer of events. Old events are
// overwritten by new ones; Total always counts every emit. A nil *Trace
// is valid and permanently disabled, so instrumented code can hold an
// optional trace without nil checks.
type Trace struct {
	enabled atomic.Bool

	mu    sync.Mutex
	buf   []Event
	total uint64
	sinks []Sink
}

// DefaultTraceCap is the ring capacity NewTrace uses for size <= 0.
const DefaultTraceCap = 4096

// NewTrace returns an enabled trace with the given ring capacity.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	t := &Trace{buf: make([]Event, 0, capacity)}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether Emit records anything. It is the cheap guard to
// place before building an Event (and especially its Note) on hot paths.
//
//mifo:hotpath
func (t *Trace) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled turns the trace on or off. Disabling does not clear the ring.
func (t *Trace) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Emit records an event, assigning its sequence number. It is a no-op —
// one atomic load — when the trace is nil or disabled, and also when the
// ring has zero capacity (a zero-value Trace that was force-enabled):
// callers are encouraged to check Enabled() first, but Emit must never
// panic on a trace that cannot store anything.
//
//mifo:hotpath
func (t *Trace) Emit(e Event) {
	if t == nil || !t.enabled.Load() {
		return
	}
	//mifolint:ignore hotpathalloc only reached when tracing is on; the Enabled() guard keeps the default path lock-free
	t.mu.Lock()
	if cap(t.buf) == 0 { // read under the lock: the append below rewrites the slice header
		t.mu.Unlock()
		return
	}
	t.total++
	e.Seq = t.total
	if len(t.buf) < cap(t.buf) {
		//mifolint:ignore hotpathalloc bounded by the ring capacity: append only runs until the ring fills once, then the branch overwrites in place
		t.buf = append(t.buf, e)
	} else {
		t.buf[int((t.total-1)%uint64(cap(t.buf)))] = e
	}
	for _, s := range t.sinks {
		s(e)
	}
	t.mu.Unlock()
}

// AddSink registers a sink for subsequent emits.
func (t *Trace) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
}

// Total returns the number of events ever emitted (including overwritten
// ones).
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Len returns the number of events currently held in the ring.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Snapshot copies the retained events oldest-first. After wraparound the
// snapshot holds the most recent cap(ring) events.
func (t *Trace) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.total <= uint64(cap(t.buf)) {
		return append(out, t.buf...)
	}
	head := int(t.total % uint64(cap(t.buf))) // index of the oldest event
	out = append(out, t.buf[head:]...)
	return append(out, t.buf[:head]...)
}

// Reset discards all retained events and restarts sequence numbering.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.total = 0
	t.mu.Unlock()
}
