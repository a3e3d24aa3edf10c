package netsim

// Streaming simulation mode: RunStream drives flows pulled one at a time
// from a traffic.Stream through the same event loop as Run, with bounded
// memory. Only one arrival event is outstanding at a time (generators emit
// monotone arrival times), finished flows fold their outcome into a
// StreamResults aggregate and recycle their flow slot, and nothing per-flow
// is retained — a paper-scale run pushes millions of flows through a few
// hundred live slots. Flight-recorder sampling, span tracing, and TSDB
// instrumentation work exactly as in batch mode: they hook the same
// handlers.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bgp"
	"repro/internal/miro"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Throughput histogram geometry: fixed 5 Mbps buckets to 1 Gbps (the
// uniform link capacity), plus one overflow bucket. Fixed buckets keep the
// aggregate O(1) per flow where metrics.CDF would retain every sample.
const (
	tpBucketMbps = 5.0
	numTPBuckets = 200
)

// StreamResults aggregates a streaming run. Unlike Results it holds no
// per-flow state — counters, sums, and a fixed-bucket throughput histogram.
type StreamResults struct {
	// Policy and Capacity mirror the run configuration.
	Policy   Policy
	Capacity float64

	// Flows is the total number of flows pulled from the stream.
	Flows int
	// Unroutable counts flows whose source had no route (including flows
	// towards destinations not in the installed set).
	Unroutable int
	// Completed counts flows that transferred all their bits.
	Completed int
	// StalledForever counts routable flows that never completed.
	StalledForever int
	// UsedAlt counts flows that ever traveled an alternative path.
	UsedAlt int
	// Switches sums path switches across all flows.
	Switches int
	// Reroutes sums control-plane repairs across all flows.
	Reroutes int
	// OffloadedBits totals traffic carried over alternative paths.
	OffloadedBits float64
	// StalledTime totals zero-rate seconds across all flows.
	StalledTime float64
	// PeakActive is the maximum number of concurrently active flows.
	PeakActive int
	// PeakFlowSlots is the flow-state high-water mark — the run's actual
	// per-flow memory footprint (≈ PeakActive + 1, regardless of Flows).
	PeakFlowSlots int
	// Routing counts the run's route-computation work, as in Results.
	Routing bgp.TableStats

	hist    [numTPBuckets + 1]int64
	sumMbps float64
	samples int64
}

// observe folds one finished (or end-of-run stalled) flow's outcome in.
func (r *StreamResults) observe(st *flowState) {
	if st.unroutable {
		r.Unroutable++
		return
	}
	if st.done {
		r.Completed++
		mbps := 0.0
		if st.finish > st.Arrival {
			mbps = st.SizeBits / (st.finish - st.Arrival) / 1e6
		}
		r.addThroughput(mbps)
	} else {
		r.StalledForever++
		r.addThroughput(0)
	}
	if st.usedAlt {
		r.UsedAlt++
	}
	r.Switches += st.switches
	r.Reroutes += st.reroutes
	r.OffloadedBits += st.offloadBits
	r.StalledTime += st.stalledTime
}

func (r *StreamResults) addThroughput(mbps float64) {
	idx := int(mbps / tpBucketMbps)
	if idx > numTPBuckets {
		idx = numTPBuckets
	}
	r.hist[idx]++
	r.sumMbps += mbps
	r.samples++
}

// Routable returns the number of flows that had a route.
func (r *StreamResults) Routable() int { return r.Flows - r.Unroutable }

// MeanThroughputMbps returns the average per-flow throughput in Mbps over
// routable flows (stalled flows count as zero, matching Results).
func (r *StreamResults) MeanThroughputMbps() float64 {
	if r.samples == 0 {
		return 0
	}
	return r.sumMbps / float64(r.samples)
}

// FractionAtLeastMbps returns the share of routable flows whose throughput
// reached the given Mbps, at the histogram's 5 Mbps granularity (exact for
// thresholds that are multiples of the bucket width; conservative — the
// partial bucket is excluded — otherwise).
func (r *StreamResults) FractionAtLeastMbps(mbps float64) float64 {
	if r.samples == 0 {
		return 0
	}
	idx := int(math.Ceil(mbps / tpBucketMbps))
	if idx < 0 {
		idx = 0
	}
	if idx > numTPBuckets {
		idx = numTPBuckets
	}
	var n int64
	for i := idx; i <= numTPBuckets; i++ {
		n += r.hist[i]
	}
	return float64(n) / float64(r.samples)
}

// OffloadFraction returns the share of routable flows that ever traveled an
// alternative path.
func (r *StreamResults) OffloadFraction() float64 {
	if r.Routable() == 0 {
		return 0
	}
	return float64(r.UsedAlt) / float64(r.Routable())
}

// RunStream simulates flows pulled from src over topology g with routes
// installed for exactly the given destinations; flows towards other
// destinations count as unroutable. maxFlows bounds the pull count
// (<= 0 drains the stream — the stream must be bounded then, or the run
// never ends). Aggregation is online: memory stays proportional to the
// peak number of concurrently active flows, not to maxFlows.
func RunStream(g *topo.Graph, src traffic.Stream, dsts []int, maxFlows int, cfg Config) (*StreamResults, error) {
	cfg = cfg.withDefaults()
	if err := validateFailures(g, cfg.Failures); err != nil {
		return nil, err
	}
	for _, d := range dsts {
		if d < 0 || d >= g.N() {
			return nil, fmt.Errorf("netsim: destination %d out of range [0, %d)", d, g.N())
		}
	}
	sorted := append([]int(nil), dsts...)
	sort.Ints(sorted)

	s := &Sim{g: g, cfg: cfg, miroAlts: make(map[int64][]miro.Alternate)}
	s.sres = &StreamResults{Policy: cfg.Policy, Capacity: cfg.LinkCapacityBps}
	s.stream = src
	s.streamLimit = maxFlows
	s.buildLinks()
	s.initTSDB()
	s.tab = bgp.NewTable(g, sorted, cfg.Workers)
	s.tab.SetTracer(cfg.Spans)

	for i := range cfg.Failures {
		fl := cfg.Failures[i]
		s.queue.Push(fl.At, evFail, i)
		if fl.RecoverAt > fl.At {
			s.queue.Push(fl.RecoverAt, evRecover, i)
		}
	}
	s.pullNext()
	if s.streamErr == nil {
		s.eventLoop()
	}
	if s.streamErr != nil {
		return nil, s.streamErr
	}
	s.sampleTSDB()

	// Flows still active at queue exhaustion are stalled forever.
	for _, fi := range s.active {
		s.sres.observe(s.flows[fi])
	}
	s.sres.PeakFlowSlots = len(s.flows)
	s.sres.Routing = s.tab.Stats()
	if s.repairedTab != nil {
		s.sres.Routing.Add(s.repairedTab.Stats())
	}
	return s.sres, nil
}

// pullNext pulls one flow from the stream (if any remain under the limit),
// assigns it a slot — recycled when possible — and schedules its arrival.
// A no-op in batch mode.
func (s *Sim) pullNext() {
	if s.stream == nil {
		return
	}
	if s.streamLimit > 0 && s.pulled >= s.streamLimit {
		return
	}
	f, ok := s.stream.Next()
	if !ok {
		return
	}
	if f.Src == f.Dst || f.Src < 0 || f.Src >= s.g.N() || f.Dst < 0 || f.Dst >= s.g.N() {
		s.streamErr = fmt.Errorf("netsim: flow %d has bad endpoints (%d -> %d)", f.ID, f.Src, f.Dst)
		return
	}
	if f.Arrival < s.now {
		s.streamErr = fmt.Errorf("netsim: flow %d arrives at %v, before current time %v (streams must be arrival-ordered)",
			f.ID, f.Arrival, s.now)
		return
	}
	var fi int32
	if n := len(s.free); n > 0 {
		fi = s.free[n-1]
		s.free = s.free[:n-1]
		*s.flows[fi] = flowState{Flow: f, left: f.SizeBits, trigLink: -1}
	} else {
		fi = int32(len(s.flows))
		s.flows = append(s.flows, &flowState{Flow: f, left: f.SizeBits, trigLink: -1})
	}
	s.pulled++
	s.sres.Flows++
	s.queue.Push(f.Arrival, evArrival, fi)
}

// retire folds a finished flow into the streaming aggregate and recycles
// its slot. Any pending reconvergence event is cancelled first — it is the
// only event kind that references a specific flow slot, so cancellation
// makes recycling safe. A no-op in batch mode, where Results are built
// from the retained flow states at the end.
func (s *Sim) retire(fi int32) {
	if s.sres == nil {
		return
	}
	st := s.flows[fi]
	s.queue.Cancel(st.repairEvt)
	st.repairEvt = nil
	s.sres.observe(st)
	s.free = append(s.free, fi)
}
