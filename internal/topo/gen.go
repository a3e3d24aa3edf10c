package topo

import (
	"fmt"
	"math/rand"
)

// GenConfig parameterizes the synthetic Internet-like topology generator.
//
// The generator substitutes for the UCLA IRL trace the paper evaluates on
// (Nov 2014: 44,340 ASes, 109,360 links, 69% provider-customer, 31%
// peering). It reproduces the structural properties MIFO's evaluation
// depends on: a strict (acyclic) customer-provider hierarchy, heavy-tailed
// degree distribution via preferential attachment, a dense tier-1 peering
// clique, multi-homed stubs, and heavily peered content-provider ASes.
type GenConfig struct {
	// N is the total number of ASes. Must be >= Tier1.
	N int
	// Tier1 is the number of tier-1 (provider-free) ASes, fully meshed
	// with peering links. Default 12 (the conventional tier-1 count).
	Tier1 int
	// TransitFrac is the fraction of non-tier-1 ASes that are transit
	// providers (they acquire customers). Default 0.15.
	TransitFrac float64
	// MeanProviders is the mean multi-homing degree: the expected number
	// of providers per non-tier-1 AS (min 1). Default 1.7, matching
	// Table I's 75,046 P/C links over 44,340 ASes.
	MeanProviders float64
	// MaxProviders caps the providers per AS. Default 6.
	MaxProviders int
	// MeanTransitPeers is the expected number of peering links initiated
	// by each transit AS (drawn geometrically). Default 4.6, calibrated
	// so peering is ~31% of links at default settings.
	MeanTransitPeers float64
	// ContentProviders is the number of stub ASes that receive extra
	// peering links (Google/Facebook-style). Default max(2, N/400).
	ContentProviders int
	// ContentProviderPeers is the expected peer count for each content
	// provider. Default 20.
	ContentProviderPeers float64
	// Seed seeds the deterministic PRNG.
	Seed int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Tier1 <= 0 {
		c.Tier1 = 12
	}
	if c.Tier1 > c.N {
		c.Tier1 = c.N
	}
	if c.TransitFrac <= 0 {
		c.TransitFrac = 0.15
	}
	if c.MeanProviders <= 0 {
		c.MeanProviders = 1.7
	}
	if c.MaxProviders <= 0 {
		c.MaxProviders = 6
	}
	if c.MeanTransitPeers <= 0 {
		c.MeanTransitPeers = 4.6
	}
	if c.ContentProviders <= 0 {
		c.ContentProviders = c.N / 400
		if c.ContentProviders < 2 {
			c.ContentProviders = 2
		}
	}
	if c.ContentProviderPeers <= 0 {
		c.ContentProviderPeers = 20
	}
	return c
}

// Generate builds a synthetic AS topology.
//
// AS indices are assigned in creation order: tier-1 ASes first, then transit
// ASes, then stubs. Providers are always chosen among strictly
// earlier-created ASes, so the provider-customer digraph is acyclic by
// construction.
func Generate(cfg GenConfig) (*Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 1 {
		return nil, fmt.Errorf("topo: GenConfig.N must be >= 1, got %d", cfg.N)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder(cfg.N)

	t1 := cfg.Tier1
	// Tier-1 clique: settlement-free peering among all tier-1 ASes.
	for i := 0; i < t1; i++ {
		for j := i + 1; j < t1; j++ {
			b.AddPeer(i, j)
		}
	}
	if cfg.N == t1 {
		return b.Build()
	}

	nonT1 := cfg.N - t1
	transit := int(cfg.TransitFrac * float64(nonT1))
	if transit < 0 {
		transit = 0
	}
	transitEnd := t1 + transit // ASes [t1, transitEnd) are transit; [transitEnd, N) are stubs

	// attach holds the preferential-attachment ballot box: each eligible
	// provider appears once per unit of attractiveness (customer degree+1).
	attach := make([]int32, 0, cfg.N*3)
	for i := 0; i < t1; i++ {
		attach = append(attach, int32(i))
	}

	// The ballot holds the tier-1 ASes and the transit ASes created before
	// v, each any number of times: min(v, transitEnd) distinct ASes, all
	// below v. v has no links while its providers are drawn, so a draw is
	// rejected only when it repeats a chosen AS. Once every distinct entry
	// is chosen every draw would repeat one, so a rejected draw then ends
	// the pick. Stubs never enter the ballot, so that can happen with
	// fewer chosen than v has predecessors.
	var chosen []int
	pickProviders := func(v, count int) []int {
		chosen = chosen[:0]
		for len(chosen) < count {
			p := int(attach[rng.Intn(len(attach))])
			if containsInt(chosen, p) {
				if len(chosen) >= min(v, transitEnd) {
					break
				}
				continue
			}
			chosen = append(chosen, p)
		}
		return chosen
	}

	for v := t1; v < cfg.N; v++ {
		nprov := 1 + geometric(rng, cfg.MeanProviders-1)
		if nprov > cfg.MaxProviders {
			nprov = cfg.MaxProviders
		}
		for _, p := range pickProviders(v, nprov) {
			b.AddPC(p, v)
			attach = append(attach, int32(p)) // provider grows more attractive
		}
		if v < transitEnd {
			// Transit ASes join the ballot box so later ASes can buy from them.
			attach = append(attach, int32(v))
		}
	}

	// Peering among transit ASes: each transit AS initiates a geometric
	// number of peerings with other transit (or tier-1) ASes.
	for v := t1; v < transitEnd; v++ {
		npeer := geometric(rng, cfg.MeanTransitPeers)
		for k := 0; k < npeer; k++ {
			u := rng.Intn(transitEnd)
			if u != v && !b.HasLink(v, u) {
				b.AddPeer(v, u)
			}
		}
	}

	// Content providers: the last ContentProviders stubs get rich peering
	// to transit ASes, mirroring hypergiant connectivity.
	cps := cfg.ContentProviders
	if cps > cfg.N-transitEnd {
		cps = cfg.N - transitEnd
	}
	for i := 0; i < cps; i++ {
		v := cfg.N - 1 - i
		npeer := geometric(rng, cfg.ContentProviderPeers)
		for k := 0; k < npeer; k++ {
			u := rng.Intn(transitEnd)
			if u != v && !b.HasLink(v, u) {
				b.AddPeer(v, u)
			}
		}
	}

	return b.Build()
}

// geometric draws a geometric-ish variate with the given mean (>= 0).
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (1 + mean)
	n := 0
	for rng.Float64() > p {
		n++
		if n > 10000 {
			break
		}
	}
	return n
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// PaperScaleConfig returns the generator configuration calibrated to
// Table I of the paper (44,340 ASes). Generating at this scale takes about
// 25 ms on a 2 vCPU Xeon (BenchmarkGeneratePaperScale); most experiments
// run at a smaller N with identical shape.
func PaperScaleConfig(seed int64) GenConfig {
	return GenConfig{N: 44340, Seed: seed}
}
