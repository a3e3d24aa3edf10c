package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestGenerateBasicInvariants(t *testing.T) {
	g, err := Generate(GenConfig{N: 2000, Seed: 42})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if g.N() != 2000 {
		t.Fatalf("N = %d, want 2000", g.N())
	}
	if !g.Connected() {
		t.Fatal("generated topology must be connected")
	}
	s := g.Stats()
	if s.AvgDegree < 2 || s.AvgDegree > 12 {
		t.Errorf("avg degree = %v, outside sane Internet-like band", s.AvgDegree)
	}
	// Table I reports 31% peering links; accept a generous band.
	if s.PeerFraction < 0.15 || s.PeerFraction > 0.50 {
		t.Errorf("peer fraction = %v, want roughly 0.31", s.PeerFraction)
	}
	// Tier-1 ASes must have no providers.
	for v := 0; v < 12; v++ {
		for _, nb := range g.Neighbors(v) {
			if nb.Rel == Provider {
				t.Fatalf("tier-1 AS %d has a provider %d", v, nb.AS)
			}
		}
	}
	// Every non-tier-1 AS must have at least one provider (reachability).
	for v := 12; v < g.N(); v++ {
		has := false
		for _, nb := range g.Neighbors(v) {
			if nb.Rel == Provider {
				has = true
				break
			}
		}
		if !has {
			t.Fatalf("AS %d has no provider", v)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{N: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{N: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Links() != b.Links() || a.PCLinks() != b.PCLinks() {
		t.Fatalf("same seed gave different topologies: %d/%d vs %d/%d links",
			a.Links(), a.PCLinks(), b.Links(), b.PCLinks())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("AS %d degree differs: %d vs %d", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("AS %d neighbor %d differs: %+v vs %+v", v, i, na[i], nb[i])
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(GenConfig{N: 500, Seed: 1})
	b, _ := Generate(GenConfig{N: 500, Seed: 2})
	if a.Links() == b.Links() && a.PeerLinks() == b.PeerLinks() && a.PCLinks() == b.PCLinks() {
		// Counts could coincide; compare adjacency of a few nodes.
		same := true
		for v := 0; v < 50 && same; v++ {
			na, nb := a.Neighbors(v), b.Neighbors(v)
			if len(na) != len(nb) {
				same = false
				break
			}
			for i := range na {
				if na[i] != nb[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("different seeds produced identical topologies")
		}
	}
}

func TestGenerateTinyAndEdgeCases(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12, 13, 50} {
		g, err := Generate(GenConfig{N: n, Seed: 3})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if g.N() != n {
			t.Fatalf("N=%d: got %d nodes", n, g.N())
		}
		if n > 1 && !g.Connected() {
			t.Fatalf("N=%d: disconnected", n)
		}
	}
	if _, err := Generate(GenConfig{N: 0}); err == nil {
		t.Error("N=0 must error")
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	g, err := Generate(GenConfig{N: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	// Preferential attachment should produce hubs far above the average.
	if float64(s.MaxDegree) < 8*s.AvgDegree {
		t.Errorf("max degree %d vs avg %.1f: degree distribution not heavy-tailed",
			s.MaxDegree, s.AvgDegree)
	}
	// Most ASes are stubs, as in the real Internet (~85%).
	if frac := float64(s.Stubs) / float64(s.Nodes); frac < 0.6 {
		t.Errorf("stub fraction = %v, want majority stubs", frac)
	}
}

// Property: generation never produces a P/C cycle or duplicate link for any
// (small) size, seed and shape — Build would reject both — and gives every
// AS below the tier-1s a provider. A zero draw leaves a setting at its
// default.
func TestQuickGenerateAlwaysValid(t *testing.T) {
	f := func(seed int64, n, tier1, transit, meanProv, maxProv uint8) bool {
		cfg := GenConfig{
			N:             int(n%200) + 1,
			Tier1:         int(tier1 % 16),
			TransitFrac:   float64(transit%101) / 100,
			MeanProviders: float64(meanProv%120) / 10,
			MaxProviders:  int(maxProv % 13),
			Seed:          seed,
		}
		g, err := Generate(cfg)
		if err != nil || g.N() != cfg.N {
			return false
		}
		for v := cfg.withDefaults().Tier1; v < g.N(); v++ {
			if len(g.Providers(v)) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGeneratePinned holds the generator's output, through Write, to the
// SHA-256 of the graphs the map-based Builder (refBuilder) built from the
// same draws: the paper-scale graph, the N = 1,000 default, the sim-flows
// benchmark graph and a small one.
func TestGeneratePinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  GenConfig
		want string
	}{
		{PaperScaleConfig(1), "6b72edc358c67493d9fdc7ed97b7880f8cb618af2e9db6a8b124768249cbb291"},
		{GenConfig{N: 1000, Seed: 1}, "1abc69cefb9659281217b0fafe85b4e1c6da25b92f14eff30a8404fb2aec20be"},
		{GenConfig{N: 400, Seed: 1}, "7028fd67312ce3afd15dead84252c24c42e0dfa7b7d3f2a1cc558d7cca985150"},
		{GenConfig{N: 120, Seed: 3}, "3de9afb4fa71e3a72e01d2feaa0df07a0b95b7b1db60e5a7a66d5bbb6421af33"},
	} {
		g, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("N=%d seed %d: %v", tc.cfg.N, tc.cfg.Seed, err)
		}
		h := sha256.New()
		if err := Write(h, g, nil); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("N=%d seed %d: Write hashes to %s, want %s", tc.cfg.N, tc.cfg.Seed, got, tc.want)
		}
	}
}

// TestGenerateFewEligibleProviders is a configuration whose stubs want
// more providers than there are ASes to buy from: two tier-1s and no
// transit AS, ten providers each on average. Once a stub holds both
// tier-1s every draw repeats one, and the draws have to stop there.
func TestGenerateFewEligibleProviders(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		g, err := Generate(GenConfig{N: 100, Tier1: 2, TransitFrac: 0.01, MeanProviders: 10, MaxProviders: 10, Seed: 1})
		if err == nil {
			for v := 2; v < g.N(); v++ {
				if p := g.Providers(v); len(p) == 0 || p[len(p)-1] > 1 {
					err = fmt.Errorf("AS %d has providers %v, want one or both tier-1s", v, p)
					break
				}
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Generate did not return in 30 s")
	}
}

func TestPaperScaleConfig(t *testing.T) {
	cfg := PaperScaleConfig(1)
	if cfg.N != 44340 {
		t.Errorf("paper-scale N = %d, want 44340", cfg.N)
	}
}

// BenchmarkGeneratePaperScale generates the 44,340-AS graph every
// paper-scale figure, test and route-* workload starts from.
func BenchmarkGeneratePaperScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(PaperScaleConfig(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerate2k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(GenConfig{N: 2000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
