package bgpsim

import (
	"sort"
	"testing"

	"repro/internal/bgp"
	"repro/internal/topo"
)

// The static RIB (what MIFO mines for alternatives) must equal the
// Adj-RIB-In that message-level BGP actually builds: same announcing
// neighbors, same paths. This ties the paper's "zero overhead" claim to a
// concrete protocol run — the alternatives really are already there.
func TestAdjRIBInMatchesStaticRIB(t *testing.T) {
	for _, seed := range []int64{2, 13} {
		g, err := topo.Generate(topo.GenConfig{N: 180, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		dst := 5
		s := New(g, dst)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		table := bgp.Compute(g, dst)
		for v := 0; v < g.N(); v++ {
			if v == dst {
				continue
			}
			// Static RIB's announcing neighbors.
			var want []int
			for _, alt := range bgp.RIB(g, table, v) {
				want = append(want, int(alt.Via))
			}
			sort.Ints(want)
			// Message-level Adj-RIB-In, with the same loop filter the
			// static RIB applies.
			var got []int
			sp := s.speakers[v]
			for from, r := range sp.adjIn {
				if r != nil && !r.contains(int32(v)) {
					got = append(got, int(from))
				}
			}
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("seed %d AS %d: adj-RIB-in %v != static RIB %v", seed, v, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d AS %d: adj-RIB-in %v != static RIB %v", seed, v, got, want)
				}
			}
			// And each announced path must equal the splice the MIFO
			// daemon would install.
			for from, r := range sp.adjIn {
				if r == nil || r.contains(int32(v)) {
					continue
				}
				splice := bgp.PathVia(table, v, int(from))
				if len(splice) != len(r.path)+1 {
					t.Fatalf("seed %d AS %d via %d: announced %v vs spliced %v",
						seed, v, from, r.path, splice)
				}
				for i, as := range r.path {
					if splice[i+1] != int(as) {
						t.Fatalf("seed %d AS %d via %d: announced %v vs spliced %v",
							seed, v, from, r.path, splice)
					}
				}
			}
		}
	}
}
