package core

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/topo"
)

// BenchmarkSelectAlternative measures the daemon's greedy per-destination
// selection on an Internet-like topology, at the best-connected AS (the
// largest RIB). "alloc" is the public entry point, which builds a fresh RIB
// slice per call; "scratch" is the refresh path, which threads one buffer
// through the whole control epoch (bgp.RIBInto) and must not allocate.
func BenchmarkSelectAlternative(b *testing.B) {
	g, err := topo.Generate(topo.GenConfig{N: 500, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	d := NewDeployment(g, Config{})
	table := bgp.Compute(g, 0)
	d.InstallDestination(table)

	// Pick the AS with the widest RIB that still has an alternative — the
	// worst case for per-call allocation.
	busiest, widest := -1, 0
	for v := 1; v < g.N(); v++ {
		if size := len(bgp.RIB(g, table, v)); size > widest {
			if _, ok := d.Daemon(v).SelectAlternative(table); ok {
				busiest, widest = v, size
			}
		}
	}
	if busiest < 0 {
		b.Fatal("no AS has an alternative")
	}
	dm := d.Daemon(busiest)

	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dm.SelectAlternative(table)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		var buf []bgp.Alt
		for i := 0; i < b.N; i++ {
			_, _, buf = dm.selectInto(table, buf)
		}
	})
}
