package bgp

// Paper-scale routing benchmarks (BenchmarkTableScale*, `make bench`): full-table
// compute and incremental recompute on a 50k-AS generated Internet, with
// bytes/dest reported from the table's own memory accounting.

import (
	"sync"
	"testing"

	"repro/internal/topo"
)

const scaleN = 50000

var (
	scaleOnce  sync.Once
	scaleGraph *topo.Graph
)

func scaleTopology(tb testing.TB) *topo.Graph {
	tb.Helper()
	scaleOnce.Do(func() {
		g, err := topo.Generate(topo.GenConfig{N: scaleN, Seed: 2})
		if err != nil {
			tb.Fatalf("Generate(%d): %v", scaleN, err)
		}
		scaleGraph = g
	})
	return scaleGraph
}

// scaleDests spreads k destinations across the index space.
func scaleDests(g *topo.Graph, k int) []int {
	dsts := make([]int, 0, k)
	for i := 0; i < k; i++ {
		dsts = append(dsts, i*g.N()/k)
	}
	return dsts
}

// BenchmarkTableScaleFullCompute builds a 64-destination table over 50k
// ASes per iteration — the per-destination cost is what a full 44,340-dest
// paper-scale build multiplies out.
func BenchmarkTableScaleFullCompute(b *testing.B) {
	g := scaleTopology(b)
	dsts := scaleDests(g, 64)
	b.ResetTimer()
	var t *Table
	for i := 0; i < b.N; i++ {
		t = NewTable(g, dsts, 0)
	}
	b.StopTimer()
	m := t.MemStats()
	b.ReportMetric(m.BytesPerDest, "bytes/dest")
	b.ReportMetric(m.BytesPerEntry, "bytes/entry")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dsts)), "ns/dest")
}

// BenchmarkTableScaleIncremental fails and restores a busy transit link on
// a 256-destination table over 50k ASes — the steady-state churn path.
func BenchmarkTableScaleIncremental(b *testing.B) {
	g := scaleTopology(b)
	t := NewTable(g, scaleDests(g, 256), 0)
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	nb := int(g.Neighbors(hub)[0].AS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.LinkDown(hub, nb)
		t.LinkUp(hub, nb)
	}
	b.StopTimer()
	st := t.Stats()
	total := st.IncrementalComputes + st.CleanSkipped
	if total > 0 {
		b.ReportMetric(100*float64(st.CleanSkipped)/float64(total), "%skipped")
	}
}

// entriesRead derives, from a finished table, the adjacency entries
// Compute read to build it: the providers and peers of every AS of the
// uphill cone (phases 1 and 2) and the providers of every AS those phases
// left without a route, reachable or not (phase 3).
func entriesRead(g *topo.Graph, d *Dest) int {
	read := 0
	for v := 0; v < g.N(); v++ {
		switch d.Class(v) {
		case ClassOrigin, ClassCustomer:
			read += len(g.Providers(v)) + len(g.Peers(v))
		case ClassProvider, ClassUnreachable:
			read += len(g.Providers(v))
		}
	}
	return read
}

// BenchmarkComputePaperScale is the budget every paper-scale figure
// multiplies out: one goroutine computing 128 destinations spread over the
// 44,340-AS graph the repo benchmark uses, reported per destination
// together with the adjacency entries each computation reads.
func BenchmarkComputePaperScale(b *testing.B) {
	g, err := topo.Generate(topo.PaperScaleConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	dsts := scaleDests(g, 128)
	read := 0
	for _, dst := range dsts {
		read += entriesRead(g, Compute(g, dst))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dst := range dsts {
			Compute(g, dst)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dsts)), "ns/dest")
	b.ReportMetric(float64(read)/float64(len(dsts)), "entries/dest")
}

// BenchmarkRepairPaperScale is the same budget for a link event: the
// destinations among those 128 that the hub's largest peer link dirties,
// each repaired after the link's failure and after its return, one
// goroutine, reported per dirty destination with the share of the graph the
// phase-3 sweep visits (swept-share).
func BenchmarkRepairPaperScale(b *testing.B) {
	g, err := topo.Generate(topo.PaperScaleConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	hub, peers := hubPeers(g)
	peer := peers[0]
	l := normLinkRef(hub, peer)
	cutGraph := mustCut(b, g, []topo.LinkRef{l})
	var with, without []*Dest
	for _, dst := range scaleDests(g, 128) {
		if d := Compute(g, dst); d.usesLink(hub, peer) {
			with, without = append(with, d), append(without, Compute(cutGraph, dst))
		}
	}
	var down, none cutRows
	down.reset(g, map[topo.LinkRef]bool{l: true})
	none.reset(g, nil)
	sc := new(repairScratch)
	swept := 0
	for _, dir := range []struct {
		name string
		up   bool
		cut  *cutRows
		old  []*Dest
	}{{"LinkDown", false, &down, with}, {"LinkUp", true, &none, without}} {
		b.Run(dir.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, old := range dir.old {
					if sc.repair(g, dir.cut, old, hub, peer, dir.up) == nil {
						b.Fatal("repair fell back to Compute")
					}
					swept += sc.visits
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dir.old)), "ns/dest")
			b.ReportMetric(float64(swept)/float64(b.N*len(dir.old)*g.N()), "swept-share")
			swept = 0
		})
	}
}
