package bgp

// Equivalence suite for both the representation and the algorithm: the
// packed 4-byte route entries must be observationally identical to the
// dense class/hops/next arrays they replaced, and the computation that
// writes them (relationship-grouped adjacency, offers from the cone, one
// bucket queue) must pick exactly the routes of the one it replaced.
// denseDest + computeDenseOracle below are a verbatim copy of the old
// representation and algorithm, which scans every neighbor of every AS in
// every phase, kept test-only as the differential oracle; every accessor is
// compared for every AS across topologies and link-event schedules, and
// FuzzCompactDest drives the same comparison from fuzzed inputs.

import (
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// denseDest is the pre-compaction representation: one Class, int16 and
// int32 per AS.
type denseDest struct {
	dst   int32
	class []Class
	hops  []int16
	next  []int32 // -1 when unreachable
}

// computeDenseOracle is the original three-phase Compute, unchanged, over
// the dense representation.
func computeDenseOracle(g *topo.Graph, dst int) *denseDest {
	n := g.N()
	d := &denseDest{
		dst:   int32(dst),
		class: make([]Class, n),
		hops:  make([]int16, n),
		next:  make([]int32, n),
	}
	for i := range d.class {
		d.class[i] = ClassUnreachable
		d.next[i] = -1
	}
	d.class[dst] = ClassOrigin

	cur := []int32{int32(dst)}
	level := int16(0)
	for len(cur) > 0 {
		level++
		var nextLevel []int32
		for _, c := range cur {
			for _, nb := range g.Neighbors(int(c)) {
				if nb.Rel != topo.Provider {
					continue
				}
				p := nb.AS
				switch {
				case d.class[p] == ClassUnreachable:
					d.class[p] = ClassCustomer
					d.hops[p] = level
					d.next[p] = c
					nextLevel = append(nextLevel, p)
				case d.class[p] == ClassCustomer && d.hops[p] == level && c < d.next[p]:
					d.next[p] = c
				}
			}
		}
		cur = nextLevel
	}

	for v := 0; v < n; v++ {
		if d.class[v] != ClassUnreachable {
			continue
		}
		bestHops := int16(-1)
		bestPeer := int32(-1)
		for _, nb := range g.Neighbors(v) {
			if nb.Rel != topo.Peer {
				continue
			}
			u := nb.AS
			if d.class[u] != ClassOrigin && d.class[u] != ClassCustomer {
				continue
			}
			h := d.hops[u] + 1
			if bestPeer < 0 || h < bestHops || (h == bestHops && u < bestPeer) {
				bestHops, bestPeer = h, u
			}
		}
		if bestPeer >= 0 {
			d.class[v] = ClassPeer
			d.hops[v] = bestHops
			d.next[v] = bestPeer
		}
	}

	maxHops := 0
	buckets := make([][]int32, 1, 16)
	push := func(v int32, h int) {
		for h >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[h] = append(buckets[h], v)
		if h > maxHops {
			maxHops = h
		}
	}
	for v := 0; v < n; v++ {
		if d.class[v] != ClassUnreachable {
			push(int32(v), int(d.hops[v]))
		}
	}
	for h := 0; h <= maxHops; h++ {
		for _, x := range buckets[h] {
			if int(d.hops[x]) != h {
				continue
			}
			for _, nb := range g.Neighbors(int(x)) {
				if nb.Rel != topo.Customer {
					continue
				}
				c := nb.AS
				switch {
				case d.class[c] == ClassUnreachable:
					d.class[c] = ClassProvider
					d.hops[c] = int16(h + 1)
					d.next[c] = x
					push(c, h+1)
				case d.class[c] == ClassProvider && int(d.hops[c]) == h+1 && x < d.next[c]:
					d.next[c] = x
				}
			}
		}
	}
	return d
}

// requireMatchesDense compares every accessor of the compact table against
// the dense oracle at every AS.
func requireMatchesDense(t *testing.T, g *topo.Graph, got *Dest, want *denseDest) {
	t.Helper()
	if got.dst != want.dst {
		t.Fatalf("dst = %d, want %d", got.dst, want.dst)
	}
	for v := 0; v < g.N(); v++ {
		if got.Class(v) != want.class[v] {
			t.Fatalf("dst %d: Class(%d) = %v, dense says %v", got.dst, v, got.Class(v), want.class[v])
		}
		if got.Reachable(v) != (want.class[v] != ClassUnreachable) {
			t.Fatalf("dst %d: Reachable(%d) mismatch", got.dst, v)
		}
		if want.class[v] == ClassUnreachable {
			if got.Hops(v) != -1 {
				t.Fatalf("dst %d: Hops(%d) = %d for unreachable AS, want -1", got.dst, v, got.Hops(v))
			}
			// The compact form suppresses unreachable entries entirely; the
			// dense form may carry a stale next pointer there. NextHop is
			// only defined for reachable ASes, but the packed word must be
			// the canonical sentinel so Equal stays a byte comparison.
			if got.packed[v] != unreachableEntry {
				t.Fatalf("dst %d: unreachable AS %d packed as %#x, want canonical %#x",
					got.dst, v, got.packed[v], unreachableEntry)
			}
			continue
		}
		if got.Hops(v) != int(want.hops[v]) {
			t.Fatalf("dst %d: Hops(%d) = %d, dense says %d", got.dst, v, got.Hops(v), want.hops[v])
		}
		if got.NextHop(v) != int(want.next[v]) {
			t.Fatalf("dst %d: NextHop(%d) = %d, dense says %d", got.dst, v, got.NextHop(v), want.next[v])
		}
	}
}

// TestCompactMatchesDense runs the differential comparison over generated
// topologies, for every destination, before and after link events.
func TestCompactMatchesDense(t *testing.T) {
	for _, n := range []int{20, 60, 150} {
		g, err := topo.Generate(topo.GenConfig{N: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		for dst := 0; dst < g.N(); dst++ {
			requireMatchesDense(t, g, Compute(g, dst), computeDenseOracle(g, dst))
		}
		// Knock out the busiest AS's first link and compare again on the
		// degraded graph.
		hub := 0
		for v := 1; v < g.N(); v++ {
			if g.Degree(v) > g.Degree(hub) {
				hub = v
			}
		}
		cut := topo.LinkRef{A: hub, B: int(g.Neighbors(hub)[0].AS)}
		cutG, err := topo.RemoveLinks(g, []topo.LinkRef{cut})
		if err != nil {
			t.Fatal(err)
		}
		for dst := 0; dst < cutG.N(); dst += 7 {
			requireMatchesDense(t, cutG, Compute(cutG, dst), computeDenseOracle(cutG, dst))
		}
	}
}

// TestCompactArenaMatchesHeap: arena-backed and heap-backed computes of the
// same destination must be Equal (the arena changes allocation, nothing
// else).
func TestCompactArenaMatchesHeap(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	for dst := 0; dst < g.N(); dst += 3 {
		if !ComputeArena(g, dst, a).Equal(Compute(g, dst)) {
			t.Fatalf("arena-backed table for dst %d differs from heap-backed", dst)
		}
	}
	st := a.Stats()
	if st.Slabs == 0 || st.AllocatedBytes == 0 || st.RetainedBytes < st.AllocatedBytes {
		t.Fatalf("arena stats implausible: %+v", st)
	}
}

// TestCompactHopOverflow builds a provider chain longer than the 6-bit
// inline hops field (62) and checks the overflow side table takes over.
func TestCompactHopOverflow(t *testing.T) {
	const chain = 80 // AS i+1 is provider of AS i; hops(dst=0) at AS v is v
	b := topo.NewBuilder(chain)
	for i := 0; i < chain-1; i++ {
		b.AddPC(i+1, i)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := Compute(g, 0)
	if len(d.overflow) == 0 {
		t.Fatal("expected hop-overflow entries on an 80-AS provider chain")
	}
	want := computeDenseOracle(g, 0)
	requireMatchesDense(t, g, d, want)
	for v := hopsSentinel; v < chain; v++ {
		if d.Hops(v) != v {
			t.Fatalf("Hops(%d) = %d, want %d", v, d.Hops(v), v)
		}
	}
	// And in the other direction (customer routes uphill at the far end).
	d2 := Compute(g, chain-1)
	requireMatchesDense(t, g, d2, computeDenseOracle(g, chain-1))
}

// deepGraph builds a graph whose routes run past the inline hops field in
// every class, with ties to break out there: a ladder of `rungs` levels,
// two ASes a level, every AS a customer of one or both ASes of the level
// above; peering links between random rungs; and stubs hanging off random
// rungs. AS indices are shuffled, so the order a level is discovered in
// says nothing about which of its ASes has the lower index.
func deepGraph(t *testing.T, rng *rand.Rand, rungs int) *topo.Graph {
	t.Helper()
	const peerings, stubs = 30, 30
	n := 2*rungs + stubs
	as := rng.Perm(n)
	rung := func(level, side int) int { return as[2*level+side] }
	b := topo.NewBuilder(n)
	for level := 0; level+1 < rungs; level++ {
		for side := 0; side < 2; side++ {
			switch rng.Intn(3) {
			case 0:
				b.AddPC(rung(level+1, side), rung(level, side))
			case 1:
				b.AddPC(rung(level+1, 1-side), rung(level, side))
			default:
				b.AddPC(rung(level+1, 0), rung(level, side)).AddPC(rung(level+1, 1), rung(level, side))
			}
		}
	}
	for i := 0; i < peerings; i++ {
		x, y := rung(rng.Intn(rungs), rng.Intn(2)), rung(rng.Intn(rungs), rng.Intn(2))
		if x != y && !b.HasLink(x, y) {
			b.AddPeer(x, y)
		}
	}
	for i := 0; i < stubs; i++ {
		stub := as[2*rungs+i]
		b.AddPC(rung(rng.Intn(rungs), rng.Intn(2)), stub)
		if p := rung(rng.Intn(rungs), rng.Intn(2)); !b.HasLink(p, stub) {
			b.AddPC(p, stub)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCompactHopOverflowBranches is TestCompactHopOverflow away from the
// chain: customer, peer and provider routes longer than the inline field
// can say, several ASes a level, tie-breaks among them.
func TestCompactHopOverflowBranches(t *testing.T) {
	deep := map[Class]int{}
	for seed := int64(1); seed <= 12; seed++ {
		g := deepGraph(t, rand.New(rand.NewSource(seed)), 90)
		for dst := 0; dst < g.N(); dst++ {
			d := Compute(g, dst)
			requireMatchesDense(t, g, d, computeDenseOracle(g, dst))
			for _, o := range d.overflow {
				deep[d.Class(int(o.as))]++
			}
		}
	}
	for _, c := range []Class{ClassCustomer, ClassPeer, ClassProvider} {
		if deep[c] == 0 {
			t.Errorf("no %v route of %d hops or more was computed: the test does not reach that branch", c, hopsSentinel)
		}
	}
	t.Logf("routes past the inline field, by class: %v", deep)
}

// removeRandomLinks returns g without k of its links picked by rng.
func removeRandomLinks(t *testing.T, g *topo.Graph, rng *rand.Rand, k int) *topo.Graph {
	t.Helper()
	var cut []topo.LinkRef
	for len(cut) < k {
		v := rng.Intn(g.N())
		if g.Degree(v) > 0 {
			cut = append(cut, topo.LinkRef{A: v, B: int(g.Neighbors(v)[rng.Intn(g.Degree(v))].AS)})
		}
	}
	out, err := topo.RemoveLinks(g, cut)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// shuffled rebuilds g through topo.Builder with its ASes relabelled by a
// permutation rng picks. Generate gives every provider a lower index than
// its customers, so a graph's provider-first order is the identity there
// and index order would serve as well; here it is not and would not.
func shuffled(t *testing.T, g *topo.Graph, rng *rand.Rand) *topo.Graph {
	t.Helper()
	perm := rng.Perm(g.N())
	b := topo.NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		for _, nb := range g.Neighbors(v) {
			switch {
			case nb.Rel == topo.Customer:
				b.AddPC(perm[v], perm[nb.AS])
			case nb.Rel == topo.Peer && int32(v) < nb.AS:
				b.AddPeer(perm[v], perm[nb.AS])
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestComputeMatchesOracleEveryDest holds Compute to the oracle on every
// destination of generated Internets of three sizes, intact and with a
// random tenth of N links removed (which leaves some ASes unreachable),
// each also with its ASes relabelled at random.
func TestComputeMatchesOracleEveryDest(t *testing.T) {
	sizes := []int{60, 400, 3000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := topo.Generate(topo.GenConfig{N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			cut := removeRandomLinks(t, g, rng, n/10)
			for _, on := range []*topo.Graph{g, cut, shuffled(t, g, rng), shuffled(t, cut, rng)} {
				for dst := 0; dst < on.N(); dst++ {
					requireMatchesDense(t, on, Compute(on, dst), computeDenseOracle(on, dst))
				}
			}
		}
	}
}

// TestComputeMatchesOraclePaperScale is the same comparison on 64
// destinations of the 44,340-AS graph the repo benchmark builds.
func TestComputeMatchesOraclePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 44,340-AS graph")
	}
	g, err := topo.Generate(topo.PaperScaleConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range scaleDests(g, 64) {
		requireMatchesDense(t, g, Compute(g, dst), computeDenseOracle(g, dst))
	}
}

// TestComputeScratchAcrossGraphs runs one scratch, as the pool would hand
// it on, through graphs of different sizes and depths in turn; each result
// must equal that of a scratch never used before.
func TestComputeScratchAcrossGraphs(t *testing.T) {
	big, err := topo.Generate(topo.GenConfig{N: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	small, err := topo.Generate(topo.GenConfig{N: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	deep := deepGraph(t, rand.New(rand.NewSource(5)), 90)
	reused := new(computeScratch)
	for round := 0; round < 3; round++ {
		for _, g := range []*topo.Graph{big, deep, small, big, small, deep} {
			dst := (7 * (round + 1)) % g.N()
			got := reused.compute(g, dst, nil)
			if want := new(computeScratch).compute(g, dst, nil); !got.Equal(want) {
				t.Fatalf("round %d, N=%d, dst %d: a reused scratch and a fresh one disagree", round, g.N(), dst)
			}
			requireMatchesDense(t, g, got, computeDenseOracle(g, dst))
		}
	}
}

func TestASPathIntoReusesBuffer(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d := Compute(g, 0)
	buf := make([]int, 0, g.N())
	for src := 0; src < g.N(); src++ {
		want := d.ASPath(src)
		got := d.ASPathInto(src, buf)
		if len(got) != len(want) {
			t.Fatalf("ASPathInto(%d) len %d, ASPath len %d", src, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ASPathInto(%d)[%d] = %d, want %d", src, i, got[i], want[i])
			}
		}
		if want != nil && cap(buf) >= len(want) && &got[0] != &buf[:1][0] {
			t.Fatalf("ASPathInto(%d) did not reuse the provided buffer", src)
		}
	}
}

// FuzzCompactDest fuzzes topology seeds and link-event schedules: after
// every event, a sample of destinations recomputed compactly must match
// the dense oracle accessor-for-accessor.
func FuzzCompactDest(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 7})
	f.Add(int64(42), []byte{1, 1, 2, 2})
	f.Add(int64(7), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g, err := topo.Generate(topo.GenConfig{N: 40, Seed: seed})
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		curG := g
		check := func() {
			for i := 0; i < 4; i++ {
				dst := rng.Intn(curG.N())
				requireMatchesDense(t, curG, Compute(curG, dst), computeDenseOracle(curG, dst))
			}
		}
		check()
		if len(ops) > 12 {
			ops = ops[:12] // bound schedule length
		}
		var cuts []topo.LinkRef
		for _, op := range ops {
			v := int(op) % curG.N()
			if curG.Degree(v) == 0 {
				continue
			}
			nb := curG.Neighbors(v)[int(op)%curG.Degree(v)]
			cuts = append(cuts, topo.LinkRef{A: v, B: int(nb.AS)})
			curG, err = topo.RemoveLinks(g, cuts)
			if err != nil {
				t.Fatal(err)
			}
			check()
		}
	})
}
