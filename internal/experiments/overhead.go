package experiments

import (
	"math/rand"

	"repro/internal/bgp"
	"repro/internal/bgpsim"
	"repro/internal/metrics"
	"repro/internal/miro"
)

// Overhead quantifies the paper's "multiple paths with zero overhead"
// claim (Section II-B / VI): every multipath proposal pays some
// control-plane cost on top of baseline BGP — MIRO per-pair negotiation
// messages, PDAR-style schemes extra UPDATEs — while MIFO mines the RIB it
// already has.
type Overhead struct {
	// BGPUpdatesPerPrefix is the average number of UPDATE messages needed
	// to converge one prefix (message-level simulation).
	BGPUpdatesPerPrefix float64
	// MIROMessagesPerPair is the average number of extra negotiation
	// messages per (src, dst) pair (request + response per alternate).
	MIROMessagesPerPair float64
	// MIFOExtraMessages is always zero — the point of the design.
	MIFOExtraMessages float64
	// ReconvergenceSec is the mean BGP reconvergence latency after a
	// single link failure (message-level), the window during which MIFO
	// keeps forwarding while plain BGP black-holes.
	ReconvergenceSec float64
}

// RunOverhead measures control-plane costs on the experiment topology.
func RunOverhead(o Options) (*Overhead, error) {
	o = o.withDefaults()
	g, err := Topology(o)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed + 1500))

	// Convergence cost and reconvergence latency over sampled prefixes.
	nPrefixes := 8
	msgs := 0.0
	reconv := &metrics.CDF{}
	for i := 0; i < nPrefixes; i++ {
		dst := rng.Intn(g.N())
		s := bgpsim.New(g, dst)
		if err := s.Run(); err != nil {
			return nil, err
		}
		msgs += float64(s.Messages)

		// Fail a link on some converged path and measure reconvergence.
		src := rng.Intn(g.N())
		path := s.Best(src)
		if len(path) < 2 {
			continue
		}
		hop := rng.Intn(len(path) - 1)
		failAt := s.Now()
		if err := s.FailLink(int(path[hop]), int(path[hop+1])); err != nil {
			return nil, err
		}
		if err := s.Run(); err != nil {
			return nil, err
		}
		if d := s.LastChange - failAt; d > 0 {
			reconv.Add(d)
		}
	}

	// MIRO negotiation cost over sampled pairs.
	cfg := miro.DefaultConfig()
	nPairs := 200
	negotiation := 0.0
	counted := 0
	for i := 0; i < nPairs; i++ {
		src, dst := rng.Intn(g.N()), rng.Intn(g.N())
		if src == dst {
			continue
		}
		table := bgp.Compute(g, dst)
		if !table.Reachable(src) {
			continue
		}
		alts := cfg.Alternates(g, table, src, nil)
		negotiation += 2 * float64(len(alts)) // request + response per tunnel
		counted++
	}

	out := &Overhead{
		BGPUpdatesPerPrefix: msgs / float64(nPrefixes),
		MIFOExtraMessages:   0,
	}
	if counted > 0 {
		out.MIROMessagesPerPair = negotiation / float64(counted)
	}
	if reconv.N() > 0 {
		out.ReconvergenceSec = reconv.Mean()
	}
	return out, nil
}
