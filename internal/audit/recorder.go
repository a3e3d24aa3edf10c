package audit

import (
	"io"
	"sync"
	"time"

	"repro/internal/dataplane"
	"repro/internal/jsonl"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/topo"
)

// Options configure a Recorder. The zero value records every flow, keeps
// no JSONL output, and exports no metrics.
type Options struct {
	// Sample is the fraction of flows recorded, selected by a stable hash
	// of the flow identity so every packet of a chosen flow is captured.
	// Values <= 0 or >= 1 record everything.
	Sample float64
	// Writer, when non-nil, receives the JSONL flight log: one line per
	// journey, written by the drainer as soon as the journey ends (Flush
	// and Close are the barriers after which every pushed journey is on
	// it). The recorder serializes writes; buffering and closing the
	// underlying file are the caller's job.
	Writer io.Writer
	// Segments is the number of ring segments hop records are sharded
	// over, rounded up to a power of two (default 8). SegmentCap is each
	// segment's capacity in hop records, rounded up to a power of two
	// (default 2048). A full segment sheds records rather than stalling
	// the forwarding engine.
	Segments   int
	SegmentCap int
	// Registry, when non-nil, exports audit_records_total,
	// audit_steps_total, audit_deflections_total,
	// audit_violations_total{invariant}, and the async-sink pipeline
	// metrics (queue depth/high-water gauges, dropped/backpressure
	// counters).
	Registry *obs.Registry
	// KeepViolating bounds how many violating records are retained in
	// memory for inspection (default 16, negative keeps none).
	KeepViolating int
}

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
	// RingDropped counts hop records shed because a ring segment stayed
	// full, or because a flow path had more steps than a segment holds
	// (the journeys they belonged to are incomplete or missing);
	// Backpressure counts ring-full events where the producer yielded
	// once before retrying.
	RingDropped  uint64
	Backpressure uint64
}

// asmKey stitches drained hop records back into journeys. kind keeps
// packet journeys and flow paths in separate key spaces; the packet side
// keys on the full five-tuple plus destination and packet ID, so hash
// collisions can never merge two journeys.
type asmKey struct {
	flow   dataplane.FlowKey
	flowID uint64
	dst    int32
	pktID  uint16
	kind   uint8
}

const (
	keyPacket uint8 = iota
	keyPath
)

// journey is one in-flight record plus its online checker.
type journey struct {
	rec Record
	chk Checker
}

// Recorder is the packet flight recorder: it accumulates journeys from
// dataplane hop hooks (packet granularity) and from netsim path installs
// (flow granularity), checks invariants online, and streams finished
// records as a JSONL log. All methods are safe for concurrent use.
//
// The record path is asynchronous: hooks offer fixed-size hop records
// (see hoprec.go) to a ring.Drainer and return; its drain goroutine, the
// drainer, assembles journeys, runs the invariant checker, and encodes
// each journey as it ends. Stats, Flush, Close and ViolatingRecords are
// synchronization barriers — each drains everything the hooks pushed
// before the call.
type Recorder struct {
	sampleLimit uint32
	// rings carries hop records to the drainer. Every record of one
	// journey is offered under the same key, so the drainer sees its hops
	// in push order.
	rings *ring.Drainer[hopRec]
	// The hooks read the two fields above on every hop, and the drainer
	// writes the ones below for every journey: keep them a cache line
	// apart.
	_ [64]byte

	// mu guards the snapshot state shared with callers: stats and the
	// retained violating records. The first sink error lives in the jsonl
	// sink itself.
	mu    sync.Mutex
	stats Stats
	bad   []Record

	// Drainer-owned state; no locking (single goroutine). The sink
	// serializes internally and retains the first write error.
	sink     *jsonl.Sink
	inflight map[asmKey]*journey
	// One-entry journey cache: consecutive hops of the same journey (the
	// overwhelmingly common drain pattern, since a journey's hops are
	// pushed back to back into one segment) skip the inflight map
	// entirely. lastInMap records whether lastJ was also spilled to the
	// map after an interleaving journey touched the cache.
	lastKey                     asmKey
	lastJ                       *journey
	lastInMap                   bool
	pool                        []*journey
	seq                         uint64
	pubDropped, pubBackpressure int64
	keep                        int

	recTotal, stepTotal, deflTotal  *obs.Counter
	violVec                         *obs.CounterVec
	droppedTotal, backpressureTotal *obs.Counter
	queueDepth, queueHigh           *obs.Gauge
}

// drainPoll is how often the drainer sweeps the rings when no barrier
// asks it to: short enough that a burst rarely fills a segment and sheds.
const drainPoll = 2 * time.Millisecond

// NewRecorder builds a recorder from options and starts its drainer.
// Call Close when done; a recorder that is never closed leaks one
// goroutine and never finalizes the journeys still in flight.
func NewRecorder(o Options) *Recorder {
	rec := &Recorder{
		sampleLimit: ^uint32(0),
		inflight:    make(map[asmKey]*journey),
		keep:        o.KeepViolating,
	}
	if o.Sample > 0 && o.Sample < 1 {
		rec.sampleLimit = uint32(o.Sample * float64(^uint32(0)))
	}
	if o.Writer != nil {
		rec.sink = jsonl.New(o.Writer)
	}
	if rec.keep == 0 {
		rec.keep = 16
	}
	nseg := o.Segments
	if nseg <= 0 {
		nseg = 8
	}
	segCap := o.SegmentCap
	if segCap <= 0 {
		segCap = 2048
	}
	if o.Registry != nil {
		rec.recTotal = o.Registry.Counter("audit_records_total", "flight records finalized")
		rec.stepTotal = o.Registry.Counter("audit_steps_total", "hops recorded across all journeys")
		rec.deflTotal = o.Registry.Counter("audit_deflections_total", "deflected steps recorded")
		rec.violVec = o.Registry.CounterVec("audit_violations_total", "invariant violations found by the online auditor", "invariant")
		rec.droppedTotal = o.Registry.Counter("audit_records_dropped_total", "hop records shed because a ring segment stayed full")
		rec.backpressureTotal = o.Registry.Counter("audit_backpressure_total", "ring-full events where a producer yielded before retrying")
		rec.queueDepth = o.Registry.Gauge("audit_queue_depth", "hop records pending in the async ring segments")
		rec.queueHigh = o.Registry.Gauge("audit_queue_highwater", "highest pending hop-record count observed")
	}
	rec.rings = ring.NewDrainer(nseg, segCap, drainPoll, rec.process, rec.barrier)
	return rec
}

// Sampled reports whether the flow with the given 32-bit identity hash is
// recorded under the sampling knob.
//
//mifo:hotpath
func (rec *Recorder) Sampled(flowHash uint32) bool { return flowHash <= rec.sampleLimit }

// mix64 spreads a flow ID over 32 bits (splitmix64 finalizer) so integer
// flow IDs sample uniformly. It is the sampling decision, part of what a
// flight log means, so it does not share the rings' segment hash.
func mix64(x uint64) uint32 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x >> 32)
}

// journeyKey folds a journey's identity into the key its hop records are
// offered under.
//
//mifo:hotpath
func journeyKey(flowID uint64, dst int32, id uint16) uint64 {
	return flowID ^ uint64(uint32(dst))<<29 ^ uint64(id)<<47
}

// hookHop is the per-forwarding-decision record path: one flow hash, a
// sampling compare, one fixed-size hopRec copied into a lock-free ring;
// a full ring sheds the record rather than stall the forwarding engine.
// No allocation, no lock, no formatting — mifolint enforces the budget
// transitively from here.
//
//mifo:hotpath
func (rec *Recorder) hookHop(p *dataplane.Packet, h dataplane.HopInfo) {
	fh := p.Flow.Hash()
	if !rec.Sampled(fh) {
		return
	}
	hr := hopRec{
		op:      opHop,
		flow:    p.Flow,
		flowID:  uint64(fh),
		dst:     p.Dst,
		pktID:   p.ID,
		verdict: h.Verdict,
		reason:  h.Reason,
		step:    stepFromHop(h),
	}
	rec.rings.Offer(journeyKey(hr.flowID, hr.dst, hr.pktID), &hr, nil)
}

// RouterHook returns the hop hook to install as dataplane.Router.Hop on
// every instrumented router. Hops of unsampled flows cost one flow hash
// and a compare; sampled hops cost one ring push.
func (rec *Recorder) RouterHook() dataplane.HopFunc {
	return rec.hookHop
}

// Lost finalizes an in-flight packet journey that will never see another
// hop — a tx-queue drop, or a transport giving up. It is a no-op for
// unsampled or unknown packets. detail should be a constant string; it
// is carried by reference through the ring.
//
//mifo:hotpath
func (rec *Recorder) Lost(p *dataplane.Packet, detail string) {
	fh := p.Flow.Hash()
	if !rec.Sampled(fh) {
		return
	}
	hr := hopRec{
		op:     opLost,
		flow:   p.Flow,
		flowID: uint64(fh),
		dst:    p.Dst,
		pktID:  p.ID,
		detail: detail,
	}
	rec.rings.Offer(journeyKey(hr.flowID, hr.dst, hr.pktID), &hr, nil)
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

// RecordPath records one installed path, running the invariant checker
// over it off the hot path. Sampling applies per flow. The whole path is
// pushed as one atomic ring block, so a path is either recorded complete
// or shed complete.
func (rec *Recorder) RecordPath(pr PathRecord) {
	if !rec.Sampled(mix64(pr.Flow)) {
		return
	}
	head := hopRec{
		op:       opPath,
		flags:    flagPathFirst,
		flowID:   pr.Flow,
		dst:      pr.Dst,
		baseline: int32(pr.BaselineLen),
	}
	var rest []hopRec
	if len(pr.Steps) == 0 {
		head.flags |= flagPathLast | flagPathEmpty
	} else {
		head.step = pr.Steps[0]
		if len(pr.Steps) == 1 {
			head.flags |= flagPathLast
		} else {
			rest = make([]hopRec, len(pr.Steps)-1)
			for i := range rest {
				rest[i] = hopRec{op: opPath, flowID: pr.Flow, dst: pr.Dst, step: pr.Steps[i+1]}
			}
			rest[len(rest)-1].flags = flagPathLast
		}
	}
	rec.rings.Offer(journeyKey(pr.Flow, pr.Dst, 0), &head, rest)
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
//
//mifo:hotpath
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
//
//mifo:hotpath
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

// barrier runs on the drainer after each sweep of the rings: on Close it
// finalizes the journeys still in flight; every time it mirrors the
// counters and answers the barrier with the first sink error.
func (rec *Recorder) barrier(kind ring.Barrier, load ring.Load) error {
	if kind == ring.Close {
		rec.loseInflight()
	}
	rec.publish(load)
	if rec.sink == nil {
		return nil
	}
	return rec.sink.Err()
}

// lookup resolves a journey through the one-entry cache, then the map.
func (rec *Recorder) lookup(k asmKey) (*journey, bool) {
	if rec.lastJ != nil && rec.lastKey == k {
		return rec.lastJ, true
	}
	j, ok := rec.inflight[k]
	return j, ok
}

// track makes j the cached journey, spilling the previous occupant to
// the map. inMap says whether j is (also) in the map already.
func (rec *Recorder) track(k asmKey, j *journey, inMap bool) {
	if rec.lastJ != nil && rec.lastKey != k && !rec.lastInMap {
		rec.inflight[rec.lastKey] = rec.lastJ
	}
	rec.lastKey, rec.lastJ, rec.lastInMap = k, j, inMap
}

// retire removes a finished journey from the cache and, if spilled, the
// map. In the steady single-journey-at-a-time pattern this touches no
// map at all.
func (rec *Recorder) retire(k asmKey) {
	if rec.lastJ != nil && rec.lastKey == k {
		if rec.lastInMap {
			delete(rec.inflight, k)
		}
		rec.lastJ = nil
		return
	}
	delete(rec.inflight, k)
}

// process folds one drained hop record into its journey.
func (rec *Recorder) process(h *hopRec) {
	switch h.op {
	case opHop:
		k := asmKey{kind: keyPacket, flow: h.flow, flowID: h.flowID, dst: h.dst, pktID: h.pktID}
		j, ok := rec.lookup(k)
		if !ok {
			j = rec.begin(KindPacket, h.flowID, h.dst, 0)
			j.rec.PktID = h.pktID
			rec.track(k, j, false)
		} else if rec.lastJ != j || rec.lastKey != k {
			rec.track(k, j, true)
		}
		rec.appendStep(j, h.step)
		switch h.verdict {
		case dataplane.VerdictDeliver:
			rec.retire(k)
			rec.finish(j, VerdictDelivered, "")
		case dataplane.VerdictDrop:
			rec.retire(k)
			rec.finish(j, VerdictDropped, h.reason.String())
		}
	case opLost:
		k := asmKey{kind: keyPacket, flow: h.flow, flowID: h.flowID, dst: h.dst, pktID: h.pktID}
		if j, ok := rec.lookup(k); ok {
			rec.retire(k)
			rec.finish(j, VerdictLost, h.detail)
		}
	case opPath:
		k := asmKey{kind: keyPath, flowID: h.flowID, dst: h.dst}
		if h.flags&flagPathFirst != 0 {
			rec.track(k, rec.begin(KindPath, h.flowID, h.dst, int(h.baseline)), false)
		}
		j, ok := rec.lookup(k)
		if !ok {
			return // head was shed with its tail; cannot happen with atomic pushes
		}
		if h.flags&flagPathEmpty == 0 {
			rec.appendStep(j, h.step)
		}
		if h.flags&flagPathLast != 0 {
			rec.retire(k)
			rec.finish(j, VerdictPath, "")
		}
	}
}

// begin starts a journey from the pool (drainer only).
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
	return j
}

// appendStep records a hop and checks it online (drainer only).
func (rec *Recorder) appendStep(j *journey, s Step) {
	j.rec.Steps = append(j.rec.Steps, s)
	if rec.stepTotal != nil {
		rec.stepTotal.Inc()
	}
	if s.Deflected {
		j.rec.Deflections++
		if rec.deflTotal != nil {
			rec.deflTotal.Inc()
		}
	}
	// New violations reach the metrics here; finish folds them into
	// Stats, under the snapshot lock.
	if n := j.chk.Step(s); n > 0 && rec.violVec != nil {
		vs := j.chk.Violations()
		for _, v := range vs[len(vs)-n:] {
			rec.violVec.With(v.Invariant.String()).Inc()
		}
	}
}

// finish finalizes a journey: copies violations into the record, updates
// the stats snapshot, and encodes the record to the sink (drainer only).
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

	rec.mu.Lock()
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
	if len(vs) > 0 && rec.keep > 0 && len(rec.bad) < rec.keep {
		bad := j.rec
		bad.Steps = append([]Step(nil), j.rec.Steps...)
		rec.bad = append(rec.bad, bad)
	}
	rec.mu.Unlock()

	if rec.recTotal != nil {
		rec.recTotal.Inc()
	}
	if rec.sink != nil {
		rec.sink.Encode(&j.rec)
	}
	rec.pool = append(rec.pool, j)
}

// loseInflight finalizes every journey still being assembled — cached
// and mapped (drainer only; Close path).
func (rec *Recorder) loseInflight() {
	if j := rec.lastJ; j != nil {
		if rec.lastInMap {
			delete(rec.inflight, rec.lastKey)
		}
		rec.lastJ = nil
		rec.finish(j, VerdictLost, "in flight at recorder close")
	}
	for k, j := range rec.inflight {
		delete(rec.inflight, k)
		rec.finish(j, VerdictLost, "in flight at recorder close")
	}
}

// publish mirrors the rings' shed counters and queue gauges into the
// stats snapshot and the obs registry (drainer only).
func (rec *Recorder) publish(load ring.Load) {
	rec.mu.Lock()
	rec.stats.RingDropped = uint64(load.Dropped)
	rec.stats.Backpressure = uint64(load.Backpressure)
	rec.mu.Unlock()
	if rec.droppedTotal == nil {
		return
	}
	rec.droppedTotal.Add(load.Dropped - rec.pubDropped)
	rec.pubDropped = load.Dropped
	rec.backpressureTotal.Add(load.Backpressure - rec.pubBackpressure)
	rec.pubBackpressure = load.Backpressure
	rec.queueDepth.Set(float64(load.Depth))
	rec.queueHigh.Set(float64(load.Highwater))
}

// Flush drains everything the hooks have pushed, so every journey that
// has ended is on the writer, and returns the first sink error seen so
// far.
func (rec *Recorder) Flush() error {
	return rec.rings.Wait(ring.Flush)
}

// Close drains every ring segment, finalizes journeys still in flight
// (verdict "lost"), stops the drainer, and returns the first sink error.
// Hooks left installed after Close are harmless: their pushes land in
// the rings and are never drained.
func (rec *Recorder) Close() error {
	return rec.rings.Close()
}

// Stats drains everything the hooks have pushed and returns a snapshot
// of the recorder's counters.
func (rec *Recorder) Stats() Stats {
	rec.rings.Wait(ring.Drain) // sink errors are for Flush and Close to report
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.stats
}

// ViolatingRecords returns up to KeepViolating retained records that had
// violations, for post-mortem inspection without a JSONL sink. Like
// Stats, it is a drain barrier.
func (rec *Recorder) ViolatingRecords() []Record {
	rec.rings.Wait(ring.Drain) // as in Stats
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]Record(nil), rec.bad...)
}
