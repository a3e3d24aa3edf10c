package netsim

// RunStream is the simulator with online aggregation: finished flows fold
// their outcome into a StreamResults and nothing per-flow is retained, so a
// paper-scale run pushes millions of flows through a few hundred live
// slots.

import (
	"math"

	"repro/internal/bgp"
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
func (r *StreamResults) observe(_ int, fr FlowResult) {
	if fr.Unroutable {
		r.Unroutable++
		return
	}
	if fr.Stalled {
		r.StalledForever++
	} else {
		r.Completed++
	}
	r.addThroughput(fr.ThroughputBps / 1e6)
	if fr.UsedAlt {
		r.UsedAlt++
	}
	r.Switches += fr.Switches
	r.Reroutes += fr.Reroutes
	r.OffloadedBits += fr.OffloadedBits
	r.StalledTime += fr.StalledTime
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
	res := &StreamResults{}
	s, err := simulate(g, src, dsts, maxFlows, cfg, res.observe)
	if err != nil {
		return nil, err
	}
	res.Policy, res.Capacity = s.cfg.Policy, linkCapacityBps
	res.Flows = s.pulled
	res.PeakActive = s.peakActive
	res.PeakFlowSlots = len(s.flows)
	res.Routing = s.routing()
	return res, nil
}
