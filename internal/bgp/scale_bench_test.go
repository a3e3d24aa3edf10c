package bgp

// Paper-scale routing benchmarks (BenchmarkTableScale*, `make bench`): full-table
// compute and incremental recompute on a 50k-AS generated Internet, with
// bytes/dest reported from the table's own memory accounting.

import (
	"bytes"
	"math/rand"
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
// uphill cone (phases 1 and 2) and the providers of every AS with customers
// those phases left without a route, reachable or not (phase 3). A stub's
// entries are read when its word is, not by Compute.
func entriesRead(g *topo.Graph, d *Dest) int {
	read, rank := 0, g.ProviderRanks()
	for v := 0; v < g.N(); v++ {
		switch c := d.Class(v); {
		case c <= ClassCustomer:
			read += len(g.Providers(v)) + len(g.Peers(v))
		case c != ClassPeer && int(rank[v]) < g.TailStart():
			read += len(g.Providers(v))
		}
	}
	return read
}

// BenchmarkComputePaperScale is the budget every paper-scale figure
// multiplies out: one goroutine building 128 destinations spread over the
// 44,340-AS graph the repo benchmark uses, in ComputeAll's batches,
// reported per destination together with the adjacency entries each
// destination's computation reads. Phase 3's
// cost depends on how the graph is numbered, so the same 128 ASes are
// computed under three numberings: as generated (every provider below its
// customers), after a Write/Parse round trip (first appearance in the
// file) and after a random relabelling through topo.Builder.
func BenchmarkComputePaperScale(b *testing.B) {
	g, err := topo.Generate(topo.PaperScaleConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	dsts := scaleDests(g, 128)

	var buf bytes.Buffer
	if err := topo.Write(&buf, g, nil); err != nil {
		b.Fatal(err)
	}
	parsed, asns, err := topo.Parse(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if parsed.N() != g.N() {
		b.Fatalf("the round trip kept %d of %d ASes", parsed.N(), g.N())
	}
	fromFile := make([]int, g.N()) // fromFile[v]: AS v's index in parsed
	for i, asn := range asns {
		fromFile[asn] = i
	}
	perm := rand.New(rand.NewSource(1)).Perm(g.N())

	for _, c := range []struct {
		name  string
		g     *topo.Graph
		label []int // the AS's index on c.g, by its index on g; nil is the identity
	}{{"generated", g, nil}, {"parsed", parsed, fromFile}, {"relabelled", relabelled(b, g, perm), perm}} {
		on := dsts
		if c.label != nil {
			on = make([]int, len(dsts))
			for k, dst := range dsts {
				on[k] = c.label[dst]
			}
		}
		b.Run(c.name, func(b *testing.B) {
			read := 0
			for _, dst := range on {
				read += entriesRead(c.g, Compute(c.g, dst))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ComputeAll(c.g, on, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(on)), "ns/dest")
			b.ReportMetric(float64(read)/float64(len(on)), "entries/dest")
		})
	}
}

// BenchmarkRepairPaperScale is the same budget for a link event: the
// destinations among those 128 that the hub's largest peer link dirties,
// each repaired after the link's failure and after its return, one
// goroutine, reported per dirty destination with the share of the stored
// ASes (those with customers) the phase-3 sweep visits (swept-share).
// CutRows is the event's serial prelude: cutRows.reset for the link's
// failure, which filters the rows of both endpoints, the hub's included.
func BenchmarkRepairPaperScale(b *testing.B) {
	g, err := topo.Generate(topo.PaperScaleConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	hub, peers := hubPeers(g)
	peer := peers[0]
	l := normLinkRef(hub, peer)
	cutGraph := mustCut(b, g, []topo.LinkRef{l})
	var down, none cutRows
	down.reset(g, map[topo.LinkRef]bool{l: true})
	none.reset(g, nil)
	// The tables the link's return repairs are those its failure left, as
	// in a Table: repaired ones, which index the intact graph's rows.
	var with, without []*Dest
	for _, dst := range scaleDests(g, 128) {
		if d := Compute(g, dst); d.usesLink(hub, peer) {
			after := new(repairScratch).repair(g, &down, d, hub, peer, false)
			if after == nil || !after.Equal(Compute(cutGraph, dst)) {
				b.Fatalf("destination %d: the link's failure repairs to a table other than Compute's", dst)
			}
			with, without = append(with, d), append(without, after)
		}
	}
	b.Run("CutRows", func(b *testing.B) {
		var cut cutRows
		failed := map[topo.LinkRef]bool{l: true}
		for i := 0; i < b.N; i++ {
			cut.reset(g, failed)
		}
	})
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
			b.ReportMetric(float64(swept)/float64(b.N*len(dir.old)*g.TailStart()), "swept-share")
			swept = 0
		})
	}
}
