package netsim

import (
	"repro/internal/bgp"
	"repro/internal/metrics"
)

// Results aggregates a run's per-flow outcomes and derives the paper's
// metrics.
type Results struct {
	// Policy is the routing policy that produced these results.
	Policy Policy
	// Capacity is the link capacity used, for normalizing throughput.
	Capacity float64
	// Flows holds one result per input flow, in input order.
	Flows []FlowResult
	// Routing counts the route-computation work of the run: the intact
	// table's full computes plus the repaired table's incremental work
	// across link failures and recoveries. CleanSkipped is the work a
	// from-scratch rebuild would have done for nothing.
	Routing bgp.TableStats
}

// Routable returns the number of flows that had a route.
func (r *Results) Routable() int {
	n := 0
	for i := range r.Flows {
		if !r.Flows[i].Unroutable {
			n++
		}
	}
	return n
}

// ThroughputCDF returns the distribution of per-flow throughput in Mbps —
// the quantity on the x axis of Figs. 5 and 6.
func (r *Results) ThroughputCDF() *metrics.CDF {
	c := &metrics.CDF{}
	for i := range r.Flows {
		if r.Flows[i].Unroutable {
			continue
		}
		c.Add(r.Flows[i].ThroughputBps / 1e6)
	}
	return c
}

// FractionAtLeastMbps returns the share of routable flows whose throughput
// reached the given Mbps — e.g. FractionAtLeastMbps(500) is the paper's
// "flows that can use at least 50% of the inter-AS link capacity".
func (r *Results) FractionAtLeastMbps(mbps float64) float64 {
	return r.ThroughputCDF().FractionAtLeast(mbps)
}

// OffloadFraction returns the share of routable flows that ever traveled an
// alternative path (Fig. 8).
func (r *Results) OffloadFraction() float64 {
	total, offloaded := 0, 0
	for i := range r.Flows {
		if r.Flows[i].Unroutable {
			continue
		}
		total++
		if r.Flows[i].UsedAlt {
			offloaded++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(offloaded) / float64(total)
}

// OffloadedBits returns the total traffic carried over alternative paths
// by data-plane deflection. It is exactly the sum the tsdb per-link
// offload series reach at the end of the run (both integrate the same
// rate*dt products), so the episode report can be cross-checked against
// the simulator's own accounting.
func (r *Results) OffloadedBits() float64 {
	total := 0.0
	for i := range r.Flows {
		total += r.Flows[i].OffloadedBits
	}
	return total
}

// SwitchHistogram returns the distribution of path-switch counts
// (deflections plus returns) over the flows that switched at least once.
func (r *Results) SwitchHistogram() *metrics.Histogram {
	h := metrics.NewHistogram()
	for i := range r.Flows {
		if r.Flows[i].Switches > 0 {
			h.Add(r.Flows[i].Switches)
		}
	}
	return h
}

// DeflectionHistogram returns the distribution of deflection counts over
// the flows that deflected at least once: Fig. 9's count (the paper
// reports that of the flows that switched paths, 67.7% switched only
// once).
func (r *Results) DeflectionHistogram() *metrics.Histogram {
	h := metrics.NewHistogram()
	for i := range r.Flows {
		if r.Flows[i].Deflections > 0 {
			h.Add(r.Flows[i].Deflections)
		}
	}
	return h
}

// MeanThroughputMbps returns the average per-flow throughput in Mbps.
func (r *Results) MeanThroughputMbps() float64 {
	return r.ThroughputCDF().Mean()
}
