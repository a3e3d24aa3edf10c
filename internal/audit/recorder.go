package audit

import (
	"cmp"
	"io"
	"slices"
	"sync"

	"repro/internal/dataplane"
	"repro/internal/jsonl"
	"repro/internal/topo"
)

// Options configure a Recorder. The zero value records every flow and
// keeps no JSONL output.
type Options struct {
	// Sample is the fraction of flows recorded, selected by a stable hash
	// of the flow identity so every packet of a chosen flow is captured.
	// Values <= 0 or >= 1 record everything.
	Sample float64
	// Writer, when non-nil, receives the JSONL flight log: one line per
	// journey, written as the journey ends, on the goroutine that ended
	// it. The recorder serializes writes; buffering and closing the
	// underlying file are the caller's job.
	Writer io.Writer
}

// keepViolating bounds how many violating records are retained in memory
// for inspection.
const keepViolating = 16

// Stats is a snapshot of a recorder's counters.
type Stats struct {
	// Records counts finalized journeys; Steps counts recorded hops.
	Records uint64
	Steps   uint64
	// Deflections counts deflected steps — at packet granularity one per
	// alternative-path forwarding decision, at flow granularity one per
	// deflection-installed path.
	Deflections uint64
	// Delivered/Dropped/Lost/Paths break Records down by verdict.
	Delivered, Dropped, Lost, Paths uint64
	// Violations is the total breach count; ByInvariant splits it.
	Violations  uint64
	ByInvariant [numInvariants]uint64
	// RingDropped is always 0: the recorder records every hop of every
	// sampled journey. It stays until its last reader, the benchmark's
	// audit.shed_share, goes.
	RingDropped uint64
}

// asmKey stitches a packet's hops into its journey: the full five-tuple
// plus destination and packet ID, so hash collisions can never merge two
// journeys.
type asmKey struct {
	flow  dataplane.FlowKey
	dst   int32
	pktID uint16
}

// journey is one in-flight record plus its online checker. start orders
// the journeys Close finalizes.
type journey struct {
	rec   Record
	chk   Checker
	start uint64
}

// Recorder is the packet flight recorder: it accumulates journeys from
// dataplane hop hooks (packet granularity) and from netsim path installs
// (flow granularity), checks invariants online, and streams finished
// records as a JSONL log. All methods are safe for concurrent use.
//
// The record path is synchronous: a sampled hop takes the recorder's one
// lock, joins its journey, runs the invariant checker, and, when the
// journey ends, finalizes it and encodes it to the writer before the
// hook returns. Nothing is shed, and a single-goroutine producer writes
// the same bytes on every run.
type Recorder struct {
	sampleLimit uint32
	sink        *jsonl.Sink // serializes internally and retains the first write error

	mu       sync.Mutex
	closed   bool
	stats    Stats
	bad      []Record
	inflight map[asmKey]*journey
	pool     []*journey
	started  uint64
	seq      uint64
}

// NewRecorder builds a recorder from options. It starts no goroutine;
// Close finalizes the journeys still in flight.
func NewRecorder(o Options) *Recorder {
	rec := &Recorder{
		sampleLimit: ^uint32(0),
		inflight:    make(map[asmKey]*journey),
	}
	if o.Sample > 0 && o.Sample < 1 {
		rec.sampleLimit = uint32(o.Sample * float64(^uint32(0)))
	}
	if o.Writer != nil {
		rec.sink = jsonl.New(o.Writer)
	}
	return rec
}

// Sampled reports whether the flow with the given 32-bit identity hash is
// recorded under the sampling knob.
func (rec *Recorder) Sampled(flowHash uint32) bool { return flowHash <= rec.sampleLimit }

// mix64 spreads a flow ID over 32 bits (splitmix64 finalizer) so integer
// flow IDs sample uniformly.
func mix64(x uint64) uint32 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x >> 32)
}

// hookHop is the per-forwarding-decision record path: one flow hash and
// a sampling compare without the lock; a sampled hop then joins its
// journey under it. No allocation in the steady state;
// TestRecorderHotPathZeroAlloc holds the budget.
func (rec *Recorder) hookHop(p *dataplane.Packet, h dataplane.HopInfo) {
	fh := p.Flow.Hash()
	if !rec.Sampled(fh) {
		return
	}
	k := asmKey{flow: p.Flow, dst: p.Dst, pktID: p.ID}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.closed {
		return
	}
	j, ok := rec.inflight[k]
	if !ok {
		j = rec.begin(KindPacket, uint64(fh), p.Dst, 0)
		j.rec.PktID = p.ID
		rec.inflight[k] = j
	}
	rec.appendStep(j, stepFromHop(h))
	switch h.Verdict {
	case dataplane.VerdictDeliver:
		delete(rec.inflight, k)
		rec.finish(j, VerdictDelivered, "")
	case dataplane.VerdictDrop:
		delete(rec.inflight, k)
		rec.finish(j, VerdictDropped, h.Reason.String())
	}
}

// RouterHook returns the hop hook to install as dataplane.Router.Hop on
// every instrumented router. Hops of unsampled flows cost one flow hash
// and a compare.
func (rec *Recorder) RouterHook() dataplane.HopFunc {
	return rec.hookHop
}

// Lost finalizes an in-flight packet journey that will never see another
// hop — a tx-queue drop, or a transport giving up. It is a no-op for
// unsampled or unknown packets, and after Close, which leaves nothing in
// flight.
func (rec *Recorder) Lost(p *dataplane.Packet, detail string) {
	if !rec.Sampled(p.Flow.Hash()) {
		return
	}
	k := asmKey{flow: p.Flow, dst: p.Dst, pktID: p.ID}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if j, ok := rec.inflight[k]; ok {
		delete(rec.inflight, k)
		rec.finish(j, VerdictLost, detail)
	}
}

// PathRecord is a flow-granularity journey: one path installed for one
// flow by the flow-level simulator.
type PathRecord struct {
	// Flow is the flow's ID; Dst its destination AS/prefix.
	Flow uint64
	Dst  int32
	// BaselineLen is the flow's default BGP path length in AS hops.
	BaselineLen int
	// Steps is the installed path, one step per AS (Router -1).
	Steps []Step
}

// RecordPath records one installed path whole, running the invariant
// checker over it. Sampling applies per flow.
func (rec *Recorder) RecordPath(pr PathRecord) {
	if !rec.Sampled(mix64(pr.Flow)) {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.closed {
		return
	}
	j := rec.begin(KindPath, pr.Flow, pr.Dst, pr.BaselineLen)
	for _, s := range pr.Steps {
		rec.appendStep(j, s)
	}
	rec.finish(j, VerdictPath, "")
}

// PathSteps converts an AS-level path into checker steps against the
// given topology: edge classes from the business relationships, tag bits
// from the entry rule (set at the origin and wherever the path enters
// from a customer). deflectedAt marks the index of the AS that installed
// this path by deflection (-1 for none).
func PathSteps(g *topo.Graph, path []int, deflectedAt int) []Step {
	steps := make([]Step, len(path))
	for i, as := range path {
		s := Step{Router: -1, AS: int32(as), Edge: EdgeNone}
		s.Tag = i == 0 || g.IsCustomer(as, path[i-1])
		if i+1 < len(path) {
			if rel, ok := g.Rel(as, path[i+1]); ok {
				s.Edge = ClassOf(rel)
			}
		}
		s.Deflected = i == deflectedAt
		steps[i] = s
	}
	return steps
}

// ClassOf maps a Gao-Rexford relationship to the edge class of an egress
// towards that neighbor.
func ClassOf(rel topo.Rel) EdgeClass {
	switch rel {
	case topo.Customer:
		return EdgeDown
	case topo.Peer:
		return EdgeAcross
	case topo.Provider:
		return EdgeUp
	default:
		return EdgeNone
	}
}

// stepFromHop translates the dataplane's view of a decision into a step.
func stepFromHop(h dataplane.HopInfo) Step {
	s := Step{
		Router:       int32(h.Router),
		AS:           h.AS,
		Tag:          h.Tag,
		Encap:        h.LeftEncap,
		EncapArrival: h.ArrivedEncap,
		Deflected:    h.Deflected,
	}
	if h.Verdict == dataplane.VerdictForward {
		switch h.OutKind {
		case dataplane.IBGP:
			s.Edge = EdgeInternal
		case dataplane.EBGP:
			s.Edge = ClassOf(h.OutRel)
		}
	}
	if h.Reason == dataplane.DropValleyFree && h.AltTried {
		s.Refused = ClassOf(h.AltRel)
	}
	return s
}

// begin starts a journey from the pool (mu held).
func (rec *Recorder) begin(kind string, flow uint64, dst int32, baseline int) *journey {
	var j *journey
	if n := len(rec.pool); n > 0 {
		j = rec.pool[n-1]
		rec.pool = rec.pool[:n-1]
	} else {
		j = &journey{}
	}
	j.rec = Record{
		Kind: kind, Flow: flow, Dst: dst,
		BaselineLen: baseline, Steps: j.rec.Steps[:0],
	}
	j.chk.Reset()
	j.start = rec.started
	rec.started++
	return j
}

// appendStep records a hop and checks it online (mu held).
func (rec *Recorder) appendStep(j *journey, s Step) {
	j.rec.Steps = append(j.rec.Steps, s)
	if s.Deflected {
		j.rec.Deflections++
	}
	j.chk.Step(s)
}

// finish finalizes a journey: copies violations into the record, updates
// the stats, retains a violating record, encodes the record to the sink
// and recycles the journey (mu held).
func (rec *Recorder) finish(j *journey, verdict, reason string) {
	j.rec.Verdict = verdict
	j.rec.Reason = reason
	rec.seq++
	j.rec.Seq = rec.seq
	vs := j.chk.Violations()
	if len(vs) > 0 {
		j.rec.Violations = append([]Violation(nil), vs...)
	} else {
		j.rec.Violations = nil
	}

	rec.stats.Records++
	rec.stats.Steps += uint64(len(j.rec.Steps))
	rec.stats.Deflections += uint64(j.rec.Deflections)
	switch verdict {
	case VerdictDelivered:
		rec.stats.Delivered++
	case VerdictDropped:
		rec.stats.Dropped++
	case VerdictLost:
		rec.stats.Lost++
	case VerdictPath:
		rec.stats.Paths++
	}
	for _, v := range vs {
		rec.stats.Violations++
		rec.stats.ByInvariant[v.Invariant]++
	}
	if len(vs) > 0 && len(rec.bad) < keepViolating {
		bad := j.rec
		bad.Steps = append([]Step(nil), j.rec.Steps...)
		rec.bad = append(rec.bad, bad)
	}

	if rec.sink != nil {
		rec.sink.Encode(&j.rec)
	}
	rec.pool = append(rec.pool, j)
}

// Flush returns the first sink error seen so far. Every journey that has
// ended is already on the writer.
func (rec *Recorder) Flush() error {
	if rec.sink == nil {
		return nil
	}
	return rec.sink.Err()
}

// Close finalizes the journeys still in flight (verdict "lost"), in the
// order they started, and returns the first sink error. Hooks called
// after Close record nothing.
func (rec *Recorder) Close() error {
	rec.mu.Lock()
	if !rec.closed {
		rec.closed = true
		left := make([]*journey, 0, len(rec.inflight))
		for _, j := range rec.inflight {
			left = append(left, j)
		}
		clear(rec.inflight)
		slices.SortFunc(left, func(a, b *journey) int { return cmp.Compare(a.start, b.start) })
		for _, j := range left {
			rec.finish(j, VerdictLost, "in flight at recorder close")
		}
	}
	rec.mu.Unlock()
	return rec.Flush()
}

// Stats returns a snapshot of the recorder's counters.
func (rec *Recorder) Stats() Stats {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.stats
}

// ViolatingRecords returns up to keepViolating retained records that had
// violations, for post-mortem inspection without a JSONL sink.
func (rec *Recorder) ViolatingRecords() []Record {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]Record(nil), rec.bad...)
}
