package testbed

import (
	"repro/internal/dataplane"
	"repro/internal/packetsim"
)

// RunPacketLevel executes the Section V experiment at packet granularity:
// the same Fig. 11 network, but with per-port tx queues, AIMD sources and
// the congestion signal emerging from real queue occupancy. It
// cross-validates the fluid model in Run — goodput factors are not
// assumed, they come out of the wire overheads and queue dynamics.
//
// Flow deflection uses the paper's five-tuple hashing (DeflectShare): when
// Rd's queue builds, the hash decides which flows move to Ra.
func RunPacketLevel(cfg Config) (*packetsim.Results, error) {
	cfg = cfg.withDefaults()
	tb := Build(cfg)
	if cfg.MIFO {
		// Hash-based flow selection instead of the fluid controller's
		// membership set (Section II-A: "the eventual path for subsequent
		// packets is determined by hashing"). With two concurrent flows a
		// 65% share leaves only ~12% of flow pairs entirely on the
		// default; deflecting everything (DeflectAll) sprays packets over
		// both links and overshoots the paper's aggregate, while a 50%
		// share strands a quarter of the pairs — see EXPERIMENTS.md.
		tb.rd.Deflect = dataplane.DeflectShare(0.65)
		for _, r := range tb.net.Routers {
			// React while the queue is building, not once it is nearly
			// full: half-occupancy is the tx-queue pressure a border
			// router would act on.
			r.CongestionThreshold = 0.5
		}
	}
	sim := packetsim.New(tb.net, nil)
	for pair, origin := range []dataplane.RouterID{tb.r1.ID, tb.r2.ID} {
		prev := -1
		for k := 0; k < cfg.FlowsPerPair; k++ {
			idx := sim.AddFlow(packetsim.FlowSpec{
				Key: dataplane.FlowKey{
					SrcAddr: uint32(pair + 1),
					DstAddr: dstPrefix,
					SrcPort: uint16(k),
					DstPort: 5001,
					Proto:   6,
				},
				Origin:    origin,
				Dst:       dstPrefix,
				SizeBytes: int(cfg.FlowSizeBits / 8),
				Start:     0,
				After:     prev,
			})
			prev = idx
		}
	}
	return sim.Run()
}
