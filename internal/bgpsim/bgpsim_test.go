package bgpsim

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/topo"
)

// fig2a: AS 0 is a customer of 1, 2, 3, which peer in a triangle.
func fig2a(t testing.TB) *topo.Graph {
	t.Helper()
	g, err := topo.NewBuilder(4).
		AddPC(1, 0).AddPC(2, 0).AddPC(3, 0).
		AddPeer(1, 2).AddPeer(2, 3).AddPeer(1, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assertMatchesStatic verifies the converged message-level routes equal
// the static solver's for every AS.
func assertMatchesStatic(t *testing.T, s *Sim, g *topo.Graph, dst int) {
	t.Helper()
	d := bgp.Compute(g, dst)
	for v := 0; v < g.N(); v++ {
		want := d.ASPath(v)
		got := s.Best(v)
		if want == nil {
			if got != nil {
				t.Fatalf("AS %d: converged to %v, static says unreachable", v, got)
			}
			continue
		}
		if got == nil {
			t.Fatalf("AS %d: unreachable, static says %v", v, want)
		}
		if len(got) != len(want) {
			t.Fatalf("AS %d: %v != static %v", v, got, want)
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("AS %d: %v != static %v", v, got, want)
			}
		}
	}
}

func TestConvergesToStaticFig2a(t *testing.T) {
	g := fig2a(t)
	s := New(g, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	assertMatchesStatic(t, s, g, 0)
	if s.Messages < 3 {
		t.Errorf("messages = %d, want at least one per neighbor of the origin", s.Messages)
	}
}

func TestConvergesToStaticGenerated(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g, err := topo.Generate(topo.GenConfig{N: 250, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range []int{0, 100, 249} {
			s := New(g, dst)
			if err := s.Run(); err != nil {
				t.Fatalf("seed %d dst %d: %v", seed, dst, err)
			}
			assertMatchesStatic(t, s, g, dst)
		}
	}
}

func TestValleyFreeExportInMessages(t *testing.T) {
	// Peer routes must not propagate to peers: same topology as
	// TestValleyBlocked in the bgp package.
	b := topo.NewBuilder(4)
	b.AddPC(1, 0).AddPeer(1, 2).AddPeer(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Reachable(2) {
		t.Error("AS 2 should learn the peer route")
	}
	if s.Reachable(3) {
		t.Error("AS 3 must not learn a route across two peer links")
	}
}

// failoverGraph: 1 provides 0 (dst), 2 and 3; 2 also provides 0; 1 provides
// 2. AS 3 only learns routes through 1, so failing the 1-0 link forces 1 to
// fail over to its route via 2 and *re-announce* to 3 — measurable
// reconvergence downstream.
func failoverGraph(t testing.TB) *topo.Graph {
	t.Helper()
	g, err := topo.NewBuilder(4).
		AddPC(1, 0).AddPC(2, 0).AddPC(1, 2).AddPC(1, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFailoverReconvergence(t *testing.T) {
	g := failoverGraph(t)
	s := New(g, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Best(3); len(got) != 3 || got[1] != 1 {
		t.Fatalf("pre-failure path %v, want [3 1 0]", got)
	}
	failAt := s.Now()
	if err := s.FailLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	reconv := s.LastChange - failAt
	if reconv <= 0 {
		t.Fatalf("no reconvergence recorded (last change %v, fail %v)", s.LastChange, failAt)
	}
	// The repaired routes must match the static solver on the cut graph.
	cut, err := topo.RemoveLinks(g, []topo.LinkRef{{A: 1, B: 0}})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesStatic(t, s, cut, 0)
	if got := s.Best(3); len(got) != 4 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("post-failure path %v, want [3 1 2 0]", got)
	}
}

func TestPartitionWithdrawsRoutes(t *testing.T) {
	g, err := topo.NewBuilder(3).AddPC(0, 1).AddPC(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Reachable(2) {
		t.Fatal("pre-failure: 2 should be reachable")
	}
	if err := s.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Reachable(1) || s.Reachable(2) {
		t.Error("withdraw cascade failed: partitioned ASes still have routes")
	}
	if err := s.FailLink(0, 1); err == nil {
		t.Error("failing a dead session must error")
	}
}

func TestRestoreLinkConvergesBack(t *testing.T) {
	g := failoverGraph(t)
	s := New(g, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.FailLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Back to the original best routes.
	assertMatchesStatic(t, s, g, 0)
	if got := s.Best(3); len(got) != 3 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("restored path %v, want [3 1 0]", got)
	}
	// Guards.
	if err := s.RestoreLink(1, 0); err == nil {
		t.Error("restoring an up session must error")
	}
	if err := s.RestoreLink(0, 3); err == nil {
		t.Error("restoring a nonexistent link must error")
	}
}

func TestMRAISlowsReconvergence(t *testing.T) {
	// MRAI rate-limits *re*-advertisements: the failover re-announcement
	// from 1 to 3 must wait out the timer, so downstream reconvergence
	// scales with MRAI.
	reconv := func(mrai float64) float64 {
		g := failoverGraph(t)
		s := New(g, 0)
		s.mrai = mrai
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		failAt := s.Now()
		if err := s.FailLink(1, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.LastChange - failAt
	}
	fast := reconv(0.01)
	slow := reconv(5.0)
	if slow < 4 {
		t.Errorf("reconvergence %v s under MRAI 5 s, want the timer to dominate", slow)
	}
	if slow <= fast {
		t.Errorf("MRAI 5 s reconverged in %v, faster than MRAI 10 ms (%v)", slow, fast)
	}
}

func TestMessageCountScalesSanely(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Every AS must have been reached at least once, and MRAI batching
	// keeps the total within a small multiple of the session count.
	if s.Messages < g.N()-1 {
		t.Errorf("messages = %d, fewer than ASes", s.Messages)
	}
	if s.Messages > 20*g.Links() {
		t.Errorf("messages = %d for %d links; suspicious chatter", s.Messages, g.Links())
	}
}

func BenchmarkConverge300(b *testing.B) {
	g, err := topo.Generate(topo.GenConfig{N: 300, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(g, i%g.N())
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
