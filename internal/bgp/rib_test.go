package bgp

import (
	"testing"
	"testing/quick"

	"repro/internal/topo"
)

func TestRIBFig2a(t *testing.T) {
	g := fig2a(t)
	d := Compute(g, 0)
	// AS 1's RIB: direct customer route via 0, plus peer routes via 2 and 3
	// (both export their customer routes to peers).
	rib := RIB(g, d, 1)
	if len(rib) != 3 {
		t.Fatalf("RIB size = %d, want 3: %+v", len(rib), rib)
	}
	if rib[0].Via != 0 || rib[0].Class != ClassCustomer {
		t.Errorf("best = %+v, want customer via 0", rib[0])
	}
	if rib[1].Via != 2 || rib[1].Class != ClassPeer || rib[1].Hops != 2 {
		t.Errorf("alt 1 = %+v, want peer via 2 hops 2", rib[1])
	}
	if rib[2].Via != 3 || rib[2].Class != ClassPeer {
		t.Errorf("alt 2 = %+v, want peer via 3", rib[2])
	}
	if RIB(g, d, 0) != nil {
		t.Error("destination's RIB should be nil")
	}
	if got := RIBSize(g, d, 1); got != 3 {
		t.Errorf("RIBSize = %d, want 3", got)
	}
}

func TestRIBExportPolicy(t *testing.T) {
	// AS 2 has only a provider route to 0 (via its provider 1).
	// AS 3 peers with 2: 2 must NOT export its provider route to 3.
	// AS 4 is 2's customer: 2 MUST export to 4.
	b := topo.NewBuilder(5)
	b.AddPC(1, 0).AddPC(1, 2).AddPeer(2, 3).AddPC(2, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := Compute(g, 0)
	if d.Class(2) != ClassProvider {
		t.Fatalf("AS2 class = %v, want provider", d.Class(2))
	}
	for _, alt := range RIB(g, d, 3) {
		if alt.Via == 2 {
			t.Error("AS2 leaked a provider route to its peer AS3")
		}
	}
	found := false
	for _, alt := range RIB(g, d, 4) {
		if alt.Via == 2 {
			found = true
			if alt.Class != ClassProvider {
				t.Errorf("route at AS4 via 2 classified %v, want provider", alt.Class)
			}
		}
	}
	if !found {
		t.Error("AS2 must export its route to customer AS4")
	}
}

func TestRIBLoopFilter(t *testing.T) {
	// n(2) is provider of v(1); v is provider of x(3); x is provider of d(0).
	// n's best route to 0 goes through v, so n's announcement back to v must
	// be dropped by the AS-path loop filter.
	b := topo.NewBuilder(4)
	b.AddPC(2, 1).AddPC(1, 3).AddPC(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := Compute(g, 0)
	if d.NextHop(2) != 1 {
		t.Fatalf("AS2 should route via 1, got %d", d.NextHop(2))
	}
	rib := RIB(g, d, 1)
	for _, alt := range rib {
		if alt.Via == 2 {
			t.Errorf("RIB at AS1 contains looping route via 2: %+v", rib)
		}
	}
	if len(rib) != 1 || rib[0].Via != 3 {
		t.Errorf("RIB at AS1 = %+v, want only the customer route via 3", rib)
	}
}

func TestAltBetterOrdering(t *testing.T) {
	a := Alt{Via: 5, Class: ClassCustomer, Hops: 9}
	b := Alt{Via: 1, Class: ClassPeer, Hops: 1}
	if !a.Better(b) {
		t.Error("customer route must beat shorter peer route")
	}
	c := Alt{Via: 9, Class: ClassPeer, Hops: 2}
	if !b.Better(c) {
		t.Error("shorter path must win within a class")
	}
	e := Alt{Via: 2, Class: ClassPeer, Hops: 1}
	if !b.Better(e) {
		t.Error("lower next-hop must win at equal class and length")
	}
}

func TestPathVia(t *testing.T) {
	g := fig2a(t)
	d := Compute(g, 0)
	p := PathVia(d, 1, 2)
	want := []int{1, 2, 0}
	if len(p) != 3 || p[0] != want[0] || p[1] != want[1] || p[2] != want[2] {
		t.Errorf("PathVia = %v, want %v", p, want)
	}
	if PathVia(d, 1, 1) == nil {
		t.Error("PathVia through a reachable AS should not be nil")
	}
	// PathViaInto builds the same path in the caller's buffer, from its
	// start, whatever the buffer held.
	buf := make([]int, 2, 8)
	q := PathViaInto(d, 1, 2, buf)
	if len(q) != 3 || q[0] != want[0] || q[1] != want[1] || q[2] != want[2] {
		t.Errorf("PathViaInto = %v, want %v", q, want)
	}
	if &q[0] != &buf[0] {
		t.Error("PathViaInto should build in the buffer it was given when the path fits")
	}
}

// Property: on generated topologies, the best route equals the top of the
// RIB — Compute and RIB implement the same selection independently.
func TestQuickBestMatchesRIBHead(t *testing.T) {
	f := func(seed int64) bool {
		g, err := topo.Generate(topo.GenConfig{N: 150, Seed: seed})
		if err != nil {
			return false
		}
		d := Compute(g, 0)
		for v := 1; v < g.N(); v++ {
			rib := RIB(g, d, v)
			if !d.Reachable(v) {
				if len(rib) != 0 {
					return false
				}
				continue
			}
			if len(rib) == 0 {
				return false
			}
			head := rib[0]
			if int(head.Via) != d.NextHop(v) || int(head.Hops) != d.Hops(v) {
				return false
			}
			if head.Class != d.Class(v) {
				return false
			}
			// And the RIB must be sorted best-first.
			for i := 1; i < len(rib); i++ {
				if rib[i].Better(rib[i-1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: every alternative's spliced path PathVia is loop-free.
func TestQuickAlternativePathsSimple(t *testing.T) {
	f := func(seed int64) bool {
		g, err := topo.Generate(topo.GenConfig{N: 120, Seed: seed})
		if err != nil {
			return false
		}
		d := Compute(g, 5%g.N())
		for v := 0; v < g.N(); v += 7 {
			if v == d.Dst() {
				continue
			}
			for _, alt := range RIB(g, d, v) {
				p := PathVia(d, v, int(alt.Via))
				seen := map[int]bool{}
				for _, x := range p {
					if seen[x] {
						return false
					}
					seen[x] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The design's diversity bound (Section II-B): an AS can never have more
// RIB entries than neighbors, and RIBSize agrees with len(RIB).
func TestQuickRIBBoundedByDegree(t *testing.T) {
	f := func(seed int64) bool {
		g, err := topo.Generate(topo.GenConfig{N: 150, Seed: seed})
		if err != nil {
			return false
		}
		d := Compute(g, 2)
		for v := 0; v < g.N(); v++ {
			if v == 2 {
				continue
			}
			rib := RIB(g, d, v)
			if len(rib) > g.Degree(v) {
				return false
			}
			if RIBSize(g, d, v) != len(rib) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Multi-homing pays off: across a generated topology, ASes with more
// neighbors hold larger RIBs on average (the paper's "degree of path
// diversity ... is dependent on how many neighbors it has").
func TestRIBGrowsWithDegree(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 500, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	d := Compute(g, 0)
	var lowSum, lowN, highSum, highN float64
	for v := 1; v < g.N(); v++ {
		size := float64(RIBSize(g, d, v))
		if g.Degree(v) <= 2 {
			lowSum += size
			lowN++
		} else if g.Degree(v) >= 6 {
			highSum += size
			highN++
		}
	}
	if lowN == 0 || highN == 0 {
		t.Skip("degree classes not populated")
	}
	if highSum/highN <= lowSum/lowN {
		t.Errorf("mean RIB size: high-degree %v <= low-degree %v", highSum/highN, lowSum/lowN)
	}
}

func BenchmarkRIB(b *testing.B) {
	g, err := topo.Generate(topo.GenConfig{N: 2000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	d := Compute(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RIB(g, d, 1+i%(g.N()-1))
	}
}
