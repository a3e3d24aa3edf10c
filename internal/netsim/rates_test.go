package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// referenceRates is the solver recomputeRates replaced: progressive filling
// that finds each bottleneck by scanning every touched link. It is the
// oracle the tournament tree must match bit for bit.
func referenceRates(s *Sim) {
	for _, l := range s.touched {
		s.load[l] = 0
	}
	s.touched = s.touched[:0]
	if len(s.active) == 0 {
		return
	}
	unallocated := 0
	for _, fi := range s.active {
		st := s.flows[fi]
		st.fixed = false
		st.rate = 0
		if st.withdrawn {
			st.fixed = true
			unallocated++
			continue
		}
		for _, l := range st.links {
			if s.count[l] == 0 {
				s.residual[l] = s.capac[l]
				s.flowsOn[l] = s.flowsOn[l][:0]
				s.touched = append(s.touched, l)
			}
			s.count[l]++
			s.flowsOn[l] = append(s.flowsOn[l], fi)
		}
	}
	remaining := len(s.active) - unallocated
	for remaining > 0 {
		best := int32(-1)
		bestShare := 0.0
		for _, l := range s.touched {
			if s.count[l] == 0 {
				continue
			}
			share := s.residual[l] / float64(s.count[l])
			if best < 0 || share < bestShare {
				best, bestShare = l, share
			}
		}
		if best < 0 {
			break
		}
		if bestShare < 0 {
			bestShare = 0
		}
		for _, fi := range s.flowsOn[best] {
			st := s.flows[fi]
			if st.fixed {
				continue
			}
			st.fixed = true
			st.rate = bestShare
			remaining--
			for _, l := range st.links {
				s.residual[l] -= bestShare
				s.count[l]--
			}
		}
	}
	for _, l := range s.touched {
		s.load[l] = s.capac[l] - s.residual[l]
		if s.load[l] < 0 {
			s.load[l] = 0
		}
		s.count[l] = 0
	}
}

// fairInstance is a solver input without a topology behind it: link
// capacities and, per flow, the links it crosses.
type fairInstance struct {
	capac     []float64
	paths     [][]int32
	withdrawn []bool
}

// sim builds the part of a Sim the solver reads and writes.
func (in fairInstance) sim() *Sim {
	n := len(in.capac)
	s := &Sim{
		numLinks: n,
		capac:    append([]float64(nil), in.capac...),
		load:     make([]float64, n),
		residual: make([]float64, n),
		count:    make([]int32, n),
		flowsOn:  make([][]int32, n),
		pos:      make([]int32, n),
		isDirty:  make([]bool, n),
	}
	for i, p := range in.paths {
		s.flows = append(s.flows, &flowState{links: p, withdrawn: in.withdrawn[i]})
		s.active = append(s.active, int32(i))
	}
	return s
}

// checkAgainstReference solves the instance with both solvers and requires
// identical bits in every rate and load; then it retires every other flow,
// fails a link and solves again on the same Sims, so the lazily reset
// scratch (touched, pos, tree, dirty marks) is exercised too.
func checkAgainstReference(t testing.TB, in fairInstance) {
	t.Helper()
	got, want := in.sim(), in.sim()
	compare := func(stage string) {
		t.Helper()
		got.recomputeRates()
		referenceRates(want)
		for i := range got.flows {
			if g, w := got.flows[i].rate, want.flows[i].rate; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: flow %d rate %v (%#x), reference %v (%#x)\ninstance %+v",
					stage, i, g, math.Float64bits(g), w, math.Float64bits(w), in)
			}
		}
		for l := range got.load {
			if g, w := got.load[l], want.load[l]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: link %d load %v (%#x), reference %v (%#x)\ninstance %+v",
					stage, l, g, math.Float64bits(g), w, math.Float64bits(w), in)
			}
		}
	}
	compare("first solve")
	for _, s := range []*Sim{got, want} {
		kept := s.active[:0]
		for i, fi := range s.active {
			if i%2 == 0 {
				kept = append(kept, fi)
			}
		}
		s.active = kept
		s.capac[0] = 0
	}
	compare("after retiring flows and failing link 0")
}

func TestFairShareMatchesReference(t *testing.T) {
	const c = 1e9
	cases := map[string]fairInstance{
		"no flows":  {capac: []float64{c, c}},
		"one flow":  {capac: []float64{c, c, c}, paths: [][]int32{{2, 0}}, withdrawn: []bool{false}},
		"one link":  {capac: []float64{c}, paths: [][]int32{{0}, {0}, {0}}, withdrawn: make([]bool, 3)},
		"dead link": {capac: []float64{0, c}, paths: [][]int32{{0, 1}, {1}}, withdrawn: make([]bool, 2)},
		"all withdrawn": {capac: []float64{c, c}, paths: [][]int32{{0}, {1}},
			withdrawn: []bool{true, true}},
		// Four identical triangles on disjoint links: every round has a
		// four-way tie for the bottleneck and drains several links at once.
		"symmetric": symmetricInstance(4, c),
		// Shares that only differ by rounding: 1e9/3 three ways.
		"thirds": {capac: []float64{c, c / 3, c}, paths: [][]int32{{0, 1}, {0, 2}, {0}, {2, 1}},
			withdrawn: make([]bool, 4)},
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, in) })
	}

	rng := rand.New(rand.NewSource(13))
	capacities := []float64{c, c, c, c / 2, c / 3, 0}
	for n := 0; n < 2000; n++ {
		links := 1 + rng.Intn(40)
		in := fairInstance{capac: make([]float64, links)}
		for l := range in.capac {
			in.capac[l] = capacities[rng.Intn(len(capacities))]
		}
		for f, flows := 0, rng.Intn(60); f < flows; f++ {
			hops := 1 + rng.Intn(5)
			if hops > links {
				hops = links
			}
			path := make([]int32, hops)
			for i, l := range rng.Perm(links)[:hops] {
				path[i] = int32(l)
			}
			in.paths = append(in.paths, path)
			in.withdrawn = append(in.withdrawn, rng.Intn(10) == 0)
		}
		checkAgainstReference(t, in)
	}
}

// symmetricInstance is k copies of one three-link, three-flow pattern.
func symmetricInstance(k int, capacity float64) fairInstance {
	var in fairInstance
	for g := 0; g < k; g++ {
		b := int32(3 * g)
		in.capac = append(in.capac, capacity, capacity, capacity)
		in.paths = append(in.paths, []int32{b, b + 1}, []int32{b + 1, b + 2}, []int32{b + 2, b}, []int32{b})
	}
	in.withdrawn = make([]bool, len(in.paths))
	return in
}

// FuzzFairShare decodes bytes into a small flow/link incidence and runs the
// differential check. Byte 0 picks the link count; one byte per link picks
// its capacity; then each flow is a header byte (hop count, withdrawn bit)
// followed by that many link bytes.
func FuzzFairShare(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0x01, 0, 0x01, 0, 0x01, 0})
	f.Add([]byte{3, 1, 1, 1, 1, 0x02, 0, 1, 0x02, 1, 2, 0x02, 2, 3, 0x12, 3, 0})
	f.Add([]byte{5, 0, 1, 2, 3, 1, 1, 0x03, 0, 1, 2, 0x03, 3, 4, 5, 0x01, 2, 0x04, 5, 4, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, decodeFairInstance(data))
	})
}

func decodeFairInstance(data []byte) fairInstance {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	capacities := []float64{0, 1e9, 1e9 / 3, 5e8, 1e9 / 7, 3e9}
	b, _ := next()
	in := fairInstance{capac: make([]float64, 1+int(b%16))}
	for l := range in.capac {
		b, _ = next()
		in.capac[l] = capacities[int(b)%len(capacities)]
	}
	for len(in.paths) < 64 {
		h, ok := next()
		if !ok {
			break
		}
		var path []int32
		seen := make(map[int32]bool)
		for i := 0; i < 1+int(h&3); i++ {
			b, _ = next()
			if l := int32(int(b) % len(in.capac)); !seen[l] {
				seen[l] = true
				path = append(path, l)
			}
		}
		in.paths = append(in.paths, path)
		in.withdrawn = append(in.withdrawn, h&0x10 != 0)
	}
	return in
}
