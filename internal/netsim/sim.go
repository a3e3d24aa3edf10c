// Package netsim is the flow-level network simulator used to reproduce the
// paper's NS-3 evaluation (Section IV): flows arrive as a Poisson process,
// links are 1 Gbps, bandwidth is shared max-min fairly, and the routing
// policy is plain BGP, MIRO, or MIFO.
//
// It is a fluid discrete-event simulator: between events every active flow
// transfers at its max-min fair rate; events are flow arrivals, flow
// completions, and periodic control epochs at which MIFO border routers
// re-evaluate deflections (and deflected flows fall back to a decongested
// default path). The per-packet mechanics — tag-check, encapsulation — are
// exercised separately in internal/dataplane; here their *decisions* are
// modeled at flow granularity, which is what the paper's throughput,
// offload, and stability figures measure.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/audit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/miro"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Policy selects the routing behavior.
type Policy int8

const (
	// PolicyBGP uses single default paths (the baseline).
	PolicyBGP Policy = iota
	// PolicyMIRO negotiates control-plane alternatives at flow start.
	PolicyMIRO
	// PolicyMIFO deflects flows on the data plane at congested egresses.
	PolicyMIFO
)

// String returns a short policy name.
func (p Policy) String() string {
	switch p {
	case PolicyBGP:
		return "BGP"
	case PolicyMIRO:
		return "MIRO"
	case PolicyMIFO:
		return "MIFO"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Quality selects how a MIFO border router ranks alternative paths
// (Section III-C describes both mechanisms).
type Quality int8

const (
	// QualityProbe estimates each alternative's end-to-end available
	// bandwidth (the "selective probing" of Section II/III-C): the
	// bottleneck spare capacity along the spliced path.
	QualityProbe Quality = iota
	// QualityLocalLink is the paper's greedy shortcut: rank only by the
	// spare capacity of the directly connected inter-AS link. Cheaper and
	// fully local, but blind to downstream congestion — kept as an
	// ablation (see BenchmarkAblationQuality).
	QualityLocalLink
	// QualityFirst ignores measurements entirely and takes the best
	// admissible RIB alternative by route preference — an ablation
	// showing the value of load-aware selection.
	QualityFirst
)

// Config parameterizes a simulation run.
type Config struct {
	// Policy is the routing policy under test.
	Policy Policy
	// Quality is MIFO's alternative-ranking mechanism (default QualityProbe).
	Quality Quality
	// Capable marks MIFO/MIRO-capable ASes (nil = all capable).
	Capable []bool
	// LinkCapacityBps is the uniform inter-AS link capacity (default 1 Gbps).
	LinkCapacityBps float64
	// CongestionThreshold is the utilization at which an egress link counts
	// as congested and deflects flows (default 0.95).
	CongestionThreshold float64
	// ReturnThreshold is the utilization below which a deflected flow's
	// trigger link must fall before the flow returns to its default path
	// (default 0.3). The hysteresis gap keeps path switching stable.
	ReturnThreshold float64
	// ControlInterval is the spacing of MIFO control epochs in seconds
	// (default 0.005). MIFO reacts on the data plane — the tx queue is
	// observed per packet — so the flow-level model must re-evaluate at a
	// few-RTT granularity; coarser intervals under-sell the mechanism
	// (see BenchmarkAblationControlInterval).
	ControlInterval float64
	// MaxSwitches stops adapting a flow after this many path switches
	// (default 16); a safety valve, rarely reached thanks to hysteresis.
	MaxSwitches int
	// MIRO configures the MIRO baseline.
	MIRO miro.Config
	// Workers bounds parallelism for route precomputation (0 = all CPUs).
	Workers int
	// Recorder, when non-nil, receives one flow-granularity flight record
	// per installed path (arrival, deflection, return, control-plane
	// repair), each run through the online invariant auditor. MIRO paths
	// are not recorded (see recordFlowPath).
	Recorder *audit.Recorder

	// Spans, when non-nil, traces every injected link event end to end:
	// the incremental route recompute, and — on a router-level mirror
	// deployment kept consistent with the repaired control plane — the
	// daemon epochs, per-router FIB commits, and data-plane generation
	// swaps the event causes. Each event becomes one span tree rooted at
	// conv_link_down / conv_link_up whose root duration is the wall-clock
	// time from failure injection to data-plane consistency (see
	// internal/obs/span and cmd/mifo-conv).
	Spans *span.Tracer

	// TSDB, when non-nil, receives per-epoch link-utilization samples
	// plus the cumulative deflection and offloaded-bits series the
	// episode analyzer attributes offload with (see tsdb.go). Sampling
	// happens at MIFO control epochs, so only MIFO runs produce series.
	TSDB *tsdb.Store

	// Failures injects link failures (an extension experiment: MIFO's
	// data-plane deflection reacts to a dead egress instantly, while BGP
	// and MIRO traffic stalls until routes reconverge).
	Failures []LinkFailure
	// ReconvergenceDelay is how long the control plane takes to repair
	// default routes after a failure or recovery (default 5 s).
	ReconvergenceDelay float64
}

func (c Config) withDefaults() Config {
	if c.LinkCapacityBps <= 0 {
		c.LinkCapacityBps = 1e9
	}
	if c.CongestionThreshold <= 0 {
		c.CongestionThreshold = 0.95
	}
	if c.ReturnThreshold <= 0 {
		c.ReturnThreshold = 0.3
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = 0.005
	}
	if c.MaxSwitches <= 0 {
		c.MaxSwitches = 16
	}
	if c.ReconvergenceDelay <= 0 {
		c.ReconvergenceDelay = 5
	}
	return c
}

// FlowResult records one flow's fate.
type FlowResult struct {
	traffic.Flow
	// Finish is the completion time (seconds).
	Finish float64
	// ThroughputBps is SizeBits / (Finish - Arrival).
	ThroughputBps float64
	// Switches counts path switches (deflections plus returns), Fig. 9.
	Switches int
	// UsedAlt reports whether the flow ever traveled an alternative path
	// (Fig. 8's offload metric).
	UsedAlt bool
	// OffloadedBits is the traffic the flow transferred while deflected
	// onto an alternative path (MIFO data-plane offload; MIRO's
	// control-plane choice is not counted — see advance).
	OffloadedBits float64
	// Unroutable marks flows whose source had no BGP route to the
	// destination; they carry zero throughput.
	Unroutable bool

	// StalledTime is the total time the flow spent at zero rate (e.g.
	// black-holed behind a failed link awaiting reconvergence).
	StalledTime float64
	// Reroutes counts control-plane path repairs after failures
	// (distinct from MIFO's data-plane Switches).
	Reroutes int
	// Stalled marks flows that never completed (dead path, no recovery).
	Stalled bool
}

// flowState is the simulator's mutable view of one flow.
type flowState struct {
	traffic.Flow
	ord     int     // position in the arrival stream (0 = first flow pulled)
	path    []int   // current AS path
	links   []int32 // directed link ids of path
	defPath []int   // default (BGP) path
	rate    float64
	left    float64 // bits remaining
	fixed   bool    // scratch for max-min computation

	onAlt    bool
	usedAlt  bool
	switches int
	trigLink int32 // link whose congestion pushed the flow off the default
	// offloadBits accumulates the bits the flow transferred while
	// deflected (MIFO only; see advance).
	offloadBits float64

	stalledTime float64
	reroutes    int
	repairEvt   *eventq.Event // pending reconvergence for this flow
	// withdrawn marks a flow whose route was withdrawn by the control
	// plane (destination unreachable after a failure): it gets no
	// bandwidth until a later reconvergence restores a route, even if the
	// failed link itself comes back in the meantime.
	withdrawn bool

	done       bool
	finish     float64
	unroutable bool
}

// Sim holds one simulation run.
type Sim struct {
	g   *topo.Graph
	cfg Config
	// tab holds the intact topology's routing tables for every flow
	// destination.
	tab *bgp.Table

	// CSR directed-link indexing: link v->u has id linkOff[v] + index of u
	// in g.Neighbors(v).
	linkOff  []int32
	numLinks int
	capac    []float64 // per-link capacity; 0 while failed
	load     []float64 // allocated bits/s per directed link
	residual []float64 // scratch for max-min
	count    []int32   // scratch for max-min
	flowsOn  [][]int32 // scratch: active flow indices per link
	touched  []int32   // links referenced by active flows
	pos      []int32   // scratch for max-min: a touched link's index in touched
	tree     fairTree  // scratch for max-min: bottleneck selection (rates.go)
	dirty    []int32   // scratch for max-min: links one round's freezes moved
	isDirty  []bool    // scratch for max-min: link is in dirty

	// Failure state. repairedTab is the control plane's post-failure view:
	// a clone of tab (sharing its per-destination tables) evolved by
	// incremental LinkDown/LinkUp as failures come and go, so each topology
	// change recomputes only the destinations whose route trees it touches
	// instead of discarding every cached table. It is created on the first
	// failure and kept for the rest of the run — a fail → recover → fail
	// cycle of the same link reuses the evolved tables.
	repairedTab  *bgp.Table
	lastChangeAt float64 // time of the latest failure or recovery
	// mirror is the convergence-tracing router mirror (see convergence.go),
	// built lazily on the first traced link event.
	mirror *core.Deployment

	flows   []*flowState
	active  []int32 // indices of in-flight flows, insertion order
	queue   eventq.Queue
	now     float64
	compEvt *eventq.Event
	epochOn bool

	miroAlts map[int64][]miro.Alternate // memoized per (src,dst)

	// pathScratch backs the repaired-route walk in handleReconverge: the
	// common outcome is "path unchanged", so the walk reuses one buffer and
	// only paths that actually moved are copied out.
	pathScratch []int

	// Candidate scratch for bestAlternative (adapt.go): most candidates
	// lose, so they are built here and only a winner is copied out.
	ribBuf    []bgp.Alt // the deciding AS's RIB
	cand      []int     // the candidate being judged, from the deflection point on
	bestCand  []int     // the best candidate so far, same form
	candLinks []int32   // link ids of cand
	asSeen    []uint32  // per AS: == seenGen when on the candidate being checked
	seenGen   uint32

	// Flows are pulled one at a time from stream (arrival times are
	// monotone, so one outstanding arrival event suffices). A finished flow
	// is handed to sink and its slot recycled through free, so flows holds
	// only as many states as were ever active at once (plus the one
	// waiting to arrive).
	stream     traffic.Stream
	maxFlows   int // max flows to pull; <= 0 means drain the stream
	pulled     int
	free       []int32
	sink       func(ord int, fr FlowResult)
	peakActive int
	err        error // first rejected flow; ends the run

	// TSDB instrumentation (nil unless cfg.TSDB is set; see tsdb.go).
	tsRun     string
	tsUtilVec *tsdb.SeriesVec
	tsDeflVec *tsdb.SeriesVec
	tsOffVec  *tsdb.SeriesVec
	tsLinkU   []*tsdb.Series // per-link handles, materialized lazily
	tsLinkD   []*tsdb.Series
	tsLinkO   []*tsdb.Series
	deflCount []float64 // cumulative deflections per link
	offBits   []float64 // cumulative offloaded bits per trigger link
	tsActive  *tsdb.Series
	tsAlt     *tsdb.Series
	tsMaxUtil *tsdb.Series
}

const (
	evArrival = iota
	evCompletion
	evEpoch
	evFail
	evRecover
	evReconverge
)

// Run simulates the given flows over topology g and returns per-flow
// results in flow order. The flows need not be sorted: they are fed to the
// simulator in arrival order, ties in input order.
func Run(g *topo.Graph, flows []traffic.Flow, cfg Config) (*Results, error) {
	order := make([]int32, len(flows))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := flows[order[i]].Arrival, flows[order[j]].Arrival
		// A NaN arrival sorts first, so the run ends on the flow that has
		// it and not on a neighbour the broken ordering displaced.
		return a < b || math.IsNaN(a) && !math.IsNaN(b)
	})
	// Routes for every distinct destination. A destination outside the
	// graph gets none: its flow is rejected, by name, when it is pulled.
	seen := make([]bool, g.N())
	var dsts []int
	for _, f := range flows {
		if f.Dst >= 0 && f.Dst < len(seen) && !seen[f.Dst] {
			seen[f.Dst] = true
			dsts = append(dsts, f.Dst)
		}
	}

	out := make([]FlowResult, len(flows))
	s, err := simulate(g, &orderedFlows{flows: flows, order: order}, dsts, 0, cfg, func(ord int, fr FlowResult) {
		out[order[ord]] = fr
	})
	if err != nil {
		return nil, err
	}
	return &Results{Policy: s.cfg.Policy, Capacity: s.cfg.LinkCapacityBps, Flows: out, Routing: s.routing()}, nil
}

// orderedFlows streams a flow slice in the given index order.
type orderedFlows struct {
	flows []traffic.Flow
	order []int32
}

func (o *orderedFlows) Next() (traffic.Flow, bool) {
	if len(o.order) == 0 {
		return traffic.Flow{}, false
	}
	f := o.flows[o.order[0]]
	o.order = o.order[1:]
	return f, true
}

// result is the flow's fate as the run's sink receives it.
func (st *flowState) result() FlowResult {
	fr := FlowResult{
		Flow:          st.Flow,
		Finish:        st.finish,
		Switches:      st.switches,
		UsedAlt:       st.usedAlt,
		OffloadedBits: st.offloadBits,
		Unroutable:    st.unroutable,
		StalledTime:   st.stalledTime,
		Reroutes:      st.reroutes,
		Stalled:       !st.done && !st.unroutable,
	}
	if !st.unroutable && st.done && st.finish > st.Arrival {
		fr.ThroughputBps = st.SizeBits / (st.finish - st.Arrival)
	}
	return fr
}

// simulate is the simulator behind Run and RunStream: it pulls up to
// maxFlows flows (<= 0 drains the stream) from src, in arrival order, over
// topology g with routes installed for exactly the destinations in dsts,
// and hands every flow's result to sink once, with the flow's position in
// the stream — when it finishes or turns out unroutable, or at the end of
// the run if it stalled forever. The returned Sim carries the run's
// counters and defaulted Config.
func simulate(g *topo.Graph, src traffic.Stream, dsts []int, maxFlows int, cfg Config, sink func(ord int, fr FlowResult)) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := validateFailures(g, cfg.Failures); err != nil {
		return nil, err
	}
	for _, d := range dsts {
		if d < 0 || d >= g.N() {
			return nil, fmt.Errorf("netsim: destination %d out of range [0, %d)", d, g.N())
		}
	}

	s := &Sim{g: g, cfg: cfg, miroAlts: make(map[int64][]miro.Alternate),
		stream: src, maxFlows: maxFlows, sink: sink}
	s.buildLinks()
	s.initTSDB()
	s.tab = bgp.NewTable(g, dsts, cfg.Workers)
	// The repaired table is a Clone of this one, so attaching the tracer
	// here makes every incremental recompute after a link event traced.
	s.tab.SetTracer(cfg.Spans)

	for i := range cfg.Failures {
		fl := cfg.Failures[i]
		s.queue.Push(fl.At, evFail, i)
		if fl.RecoverAt > fl.At {
			s.queue.Push(fl.RecoverAt, evRecover, i)
		}
	}
	s.pullNext()
	s.eventLoop()
	if s.err != nil {
		return nil, s.err
	}
	// One final sample pins the cumulative counters' end state, so the
	// episode report's totals match the results exactly.
	s.sampleTSDB()

	// Flows still active at queue exhaustion are stalled forever.
	for _, fi := range s.active {
		sink(s.flows[fi].ord, s.flows[fi].result())
	}
	return s, nil
}

// routing is the run's route-computation work: the intact table's full
// computes plus the repaired table's incremental work.
func (s *Sim) routing() bgp.TableStats {
	st := s.tab.Stats()
	if s.repairedTab != nil {
		st.Add(s.repairedTab.Stats())
	}
	return st
}

// eventLoop drains the queue. Each handled arrival pulls the next flow
// from the source; a flow the pull rejects ends the run.
func (s *Sim) eventLoop() {
	for s.err == nil {
		ev := s.queue.Pop()
		if ev == nil {
			break
		}
		s.advance(ev.Time)
		switch ev.Kind {
		case evArrival:
			s.handleArrival(int(ev.Data.(int32)))
			s.pullNext()
		case evCompletion:
			s.compEvt = nil
			s.handleCompletions()
		case evEpoch:
			s.epochOn = false
			s.handleEpoch()
		case evFail:
			s.handleFail(s.cfg.Failures[ev.Data.(int)])
		case evRecover:
			s.handleRecover(s.cfg.Failures[ev.Data.(int)])
		case evReconverge:
			s.handleReconverge(int(ev.Data.(int32)))
		}
	}
}

// pullNext pulls one flow from the stream (if any remain under the limit),
// checks it, assigns it a slot — recycled when possible — and schedules its
// arrival. It is the one place a flow enters the simulation, so every
// check on a flow lives here.
func (s *Sim) pullNext() {
	if s.maxFlows > 0 && s.pulled >= s.maxFlows {
		return
	}
	f, ok := s.stream.Next()
	if !ok {
		return
	}
	// The size and arrival comparisons are written so that NaN fails them.
	// An infinite size would keep the epoch chain ticking forever, a
	// non-positive one would finish before it arrives, and a NaN poisons
	// the fair shares of every flow it meets.
	switch {
	case f.Src == f.Dst || f.Src < 0 || f.Src >= s.g.N() || f.Dst < 0 || f.Dst >= s.g.N():
		s.err = fmt.Errorf("netsim: flow %d has bad endpoints (%d -> %d)", f.ID, f.Src, f.Dst)
	case !(f.SizeBits > 0 && f.SizeBits <= math.MaxFloat64):
		s.err = fmt.Errorf("netsim: flow %d has size %v bits; want a positive finite size", f.ID, f.SizeBits)
	case !(f.Arrival >= 0 && f.Arrival <= math.MaxFloat64):
		s.err = fmt.Errorf("netsim: flow %d arrives at %v; want a finite time >= 0", f.ID, f.Arrival)
	case f.Arrival < s.now:
		s.err = fmt.Errorf("netsim: flow %d arrives at %v, before current time %v (streams must be arrival-ordered)",
			f.ID, f.Arrival, s.now)
	}
	if s.err != nil {
		return
	}
	var fi int32
	if n := len(s.free); n > 0 {
		fi = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		fi = int32(len(s.flows))
		s.flows = append(s.flows, new(flowState))
	}
	*s.flows[fi] = flowState{Flow: f, ord: s.pulled, left: f.SizeBits, trigLink: -1}
	s.pulled++
	s.queue.Push(f.Arrival, evArrival, fi)
}

// retire hands a finished flow to the sink and recycles its slot. Any
// pending reconvergence event is cancelled first — it is the only event
// kind that references a specific flow slot, so cancellation makes
// recycling safe.
func (s *Sim) retire(fi int32) {
	st := s.flows[fi]
	s.queue.Cancel(st.repairEvt)
	st.repairEvt = nil
	s.sink(st.ord, st.result())
	s.free = append(s.free, fi)
}

// buildLinks prepares the CSR directed-link index.
func (s *Sim) buildLinks() {
	n := s.g.N()
	s.linkOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		s.linkOff[v+1] = s.linkOff[v] + int32(s.g.Degree(v))
	}
	s.numLinks = int(s.linkOff[n])
	s.capac = make([]float64, s.numLinks)
	for i := range s.capac {
		s.capac[i] = s.cfg.LinkCapacityBps
	}
	s.load = make([]float64, s.numLinks)
	s.residual = make([]float64, s.numLinks)
	s.count = make([]int32, s.numLinks)
	s.flowsOn = make([][]int32, s.numLinks)
	s.pos = make([]int32, s.numLinks)
	s.isDirty = make([]bool, s.numLinks)
}

// linkID returns the id of the directed link v -> u. u must be a neighbor.
func (s *Sim) linkID(v, u int) int32 {
	nbs := s.g.Neighbors(v)
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i].AS >= int32(u) })
	return s.linkOff[v] + int32(i)
}

// linkOwner returns the AS that owns directed link l (the v of v -> u).
func (s *Sim) linkOwner(l int32) int {
	return sort.Search(s.g.N(), func(v int) bool { return s.linkOff[v+1] > l })
}

// advance progresses all active flows to time t.
func (s *Sim) advance(t float64) {
	dt := t - s.now
	if dt > 0 {
		for _, fi := range s.active {
			st := s.flows[fi]
			if st.rate <= 0 {
				st.stalledTime += dt
				continue
			}
			st.left -= st.rate * dt
			if st.left < 0 {
				st.left = 0
			}
			// Bits carried while deflected are the offload the episode
			// analyzer attributes to the trigger link. MIRO's one-shot
			// alternative choice never sets onAlt, so this accounting is
			// MIFO data-plane offload only.
			if st.onAlt {
				st.offloadBits += st.rate * dt
				if s.offBits != nil && st.trigLink >= 0 {
					s.offBits[st.trigLink] += st.rate * dt
				}
			}
		}
	}
	s.now = t
}

func (s *Sim) capable(v int) bool {
	return s.cfg.Capable == nil || s.cfg.Capable[v]
}

func (s *Sim) handleArrival(fi int) {
	st := s.flows[fi]
	table := s.tab.Dest(st.Dst)
	if table == nil || !table.Reachable(st.Src) {
		st.unroutable = true
		st.done = true
		st.finish = s.now
		s.retire(int32(fi))
		return
	}
	st.defPath = table.ASPath(st.Src)
	st.path = st.defPath
	st.links = s.pathLinks(st.path)
	s.recordFlowPath(st, -1) // the default install; adaptFlow records its own

	switch s.cfg.Policy {
	case PolicyMIRO:
		s.miroChoose(st, table)
	case PolicyMIFO:
		// A border router sees the congested egress the moment the first
		// packets queue; model that as an immediate deflection check.
		// Dead links read as fully congested, so this also covers fast
		// failover at flow start.
		s.adaptFlow(st, table)
	}
	// If the flow still lands on a failed link, it is black-holed until
	// the control plane repairs the route.
	if s.crossesDead(st.links) {
		s.scheduleRepair(fi)
	}

	s.active = append(s.active, int32(fi))
	if len(s.active) > s.peakActive {
		s.peakActive = len(s.active)
	}
	s.afterTopologyChange()
	if !s.epochOn && s.cfg.Policy == PolicyMIFO {
		s.queue.Push(s.now+s.cfg.ControlInterval, evEpoch, nil)
		s.epochOn = true
	}
}

func (s *Sim) handleCompletions() {
	const eps = 1e-3 // bits
	changed := false
	kept := s.active[:0]
	for _, fi := range s.active {
		st := s.flows[fi]
		if st.left <= eps {
			st.done = true
			st.left = 0
			st.finish = s.now
			changed = true
			s.retire(fi)
		} else {
			kept = append(kept, fi)
		}
	}
	s.active = kept
	if changed {
		s.afterTopologyChange()
	}
}

func (s *Sim) handleEpoch() {
	if s.cfg.Policy == PolicyMIFO {
		moved := 0
		for _, fi := range s.active {
			st := s.flows[fi]
			if st.switches >= s.cfg.MaxSwitches {
				continue
			}
			table := s.tab.Dest(st.Dst)
			if s.adaptFlow(st, table) {
				moved++
			}
		}
		if moved > 0 {
			s.afterTopologyChange()
		}
		s.sampleTSDB()
	}
	// Keep ticking while there is anything an epoch could still influence.
	// If every active flow is permanently stalled and no other event is
	// pending (no arrival, completion, failure or recovery), the epoch
	// chain must end or the simulation would spin forever.
	if len(s.active) > 0 && !s.queue.Empty() {
		s.queue.Push(s.now+s.cfg.ControlInterval, evEpoch, nil)
		s.epochOn = true
	}
}

// afterTopologyChange recomputes fair rates and reschedules the next
// completion event.
func (s *Sim) afterTopologyChange() {
	s.recomputeRates()
	s.queue.Cancel(s.compEvt)
	s.compEvt = nil
	next := -1.0
	for _, fi := range s.active {
		st := s.flows[fi]
		if st.rate <= 0 {
			continue
		}
		t := s.now + st.left/st.rate
		if next < 0 || t < next {
			next = t
		}
	}
	if next >= 0 {
		s.compEvt = s.queue.Push(next, evCompletion, nil)
	}
}

// pathLinks maps an AS path to directed link ids.
func (s *Sim) pathLinks(path []int) []int32 {
	return s.appendPathLinks(make([]int32, 0, len(path)-1), path)
}

// appendPathLinks appends the path's directed link ids to links.
func (s *Sim) appendPathLinks(links []int32, path []int) []int32 {
	for i := 0; i+1 < len(path); i++ {
		links = append(links, s.linkID(path[i], path[i+1]))
	}
	return links
}

func (s *Sim) util(l int32) float64 {
	if s.capac[l] <= 0 {
		return 2 // a failed link is beyond congested
	}
	return s.load[l] / s.capac[l]
}

func (s *Sim) spare(l int32) float64 {
	sp := s.capac[l] - s.load[l]
	if sp < 0 {
		return 0
	}
	return sp
}
