package topo

import "testing"

func TestCustomerCone(t *testing.T) {
	// 0 provides 1 and 2; 1 provides 3; 2 peers with 4.
	g, err := NewBuilder(5).
		AddPC(0, 1).AddPC(0, 2).AddPC(1, 3).AddPeer(2, 4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cone := CustomerCone(g, 0)
	want := map[int]bool{0: true, 1: true, 2: true, 3: true}
	if len(cone) != 4 {
		t.Fatalf("cone = %v, want {0,1,2,3}", cone)
	}
	for _, v := range cone {
		if !want[v] {
			t.Fatalf("cone contains %d (peer's side must be excluded)", v)
		}
	}
	if ConeSize(g, 3) != 1 {
		t.Errorf("stub cone size = %d, want 1", ConeSize(g, 3))
	}
	if ConeSize(g, 1) != 2 {
		t.Errorf("cone size of 1 = %d, want 2", ConeSize(g, 1))
	}
}

func TestCustomerConeDiamond(t *testing.T) {
	// Multi-homed customer must be counted once.
	g, err := NewBuilder(4).AddPC(0, 1).AddPC(0, 2).AddPC(1, 3).AddPC(2, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := ConeSize(g, 0); got != 4 {
		t.Errorf("cone size = %d, want 4", got)
	}
}

func TestSamplePathStats(t *testing.T) {
	// A path graph 0-1-2-3 has diameter 3 from the endpoints.
	g, err := NewBuilder(4).AddPC(0, 1).AddPC(1, 2).AddPC(2, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	stats := SamplePathStats(g, 4, 1)
	if stats.Diameter != 3 {
		t.Errorf("diameter = %d, want 3", stats.Diameter)
	}
	if stats.AvgHops <= 1 || stats.AvgHops >= 3 {
		t.Errorf("avg hops = %v, want in (1, 3)", stats.AvgHops)
	}
	// Degenerate inputs.
	empty, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if s := SamplePathStats(empty, 3, 1); s.Diameter != 0 {
		t.Errorf("empty graph stats = %+v", s)
	}
	if s := SamplePathStats(g, 0, 1); s.Diameter != 0 {
		t.Errorf("zero samples stats = %+v", s)
	}
}

func TestGeneratedSmallWorld(t *testing.T) {
	g, err := Generate(GenConfig{N: 2000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	stats := SamplePathStats(g, 20, 2)
	// Internet-like graphs are small worlds: a couple thousand ASes should
	// sit within a handful of hops.
	if stats.Diameter > 12 {
		t.Errorf("diameter = %d; generator is not producing a small world", stats.Diameter)
	}
	if stats.AvgHops > 6 {
		t.Errorf("avg hops = %v, want < 6", stats.AvgHops)
	}
	// At least one tier-1 should have a giant customer cone (preferential
	// attachment concentrates customers on a few providers).
	maxCone := 0
	for v := 0; v < 12; v++ {
		if c := ConeSize(g, v); c > maxCone {
			maxCone = c
		}
	}
	if maxCone < g.N()/5 {
		t.Errorf("largest tier-1 cone = %d of %d; hierarchy broken", maxCone, g.N())
	}
}
