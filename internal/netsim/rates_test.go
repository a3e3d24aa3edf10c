package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refSim is the state referenceRates reads and writes: link-indexed
// scratch and per-flow freeze marks, apart from Sim's, so that the oracle
// stays the plain scan whatever the solver's layout.
type refSim struct {
	capac, load, residual []float64
	count                 []int32
	flowsOn               [][]int32
	touched, active       []int32
	flows                 []*refFlow
}

type refFlow struct {
	links            []int32
	rate             float64
	fixed, withdrawn bool
}

// newRefSim copies the solver input out of s: capacities, active flows and
// their links.
func newRefSim(s *Sim) *refSim {
	n := len(s.capac)
	r := &refSim{
		capac:    append([]float64(nil), s.capac...),
		load:     make([]float64, n),
		residual: make([]float64, n),
		count:    make([]int32, n),
		flowsOn:  make([][]int32, n),
		active:   append([]int32(nil), s.active...),
		flows:    make([]*refFlow, len(s.flows)),
	}
	for _, fi := range s.active {
		r.flows[fi] = &refFlow{links: s.flows[fi].links, withdrawn: s.flows[fi].withdrawn}
	}
	return r
}

// referenceRates is the solver recomputeRates replaced: progressive filling
// that finds each bottleneck by scanning every touched link. It is the
// oracle the tournament tree must match bit for bit.
func referenceRates(s *refSim) {
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

// sim builds the part of a Sim the solver reads and writes: capacities,
// loads, the per-link position map (-1: no position) and the flows. The
// dense scratch grows on the first solve.
func (in fairInstance) sim() *Sim {
	n := len(in.capac)
	s := &Sim{
		numLinks: n,
		capac:    append([]float64(nil), in.capac...),
		load:     make([]float64, n),
		pos:      make([]int32, n),
	}
	for l := range s.pos {
		s.pos[l] = -1
	}
	for i, p := range in.paths {
		s.flows = append(s.flows, &flowState{links: p, withdrawn: in.withdrawn[i]})
		s.active = append(s.active, int32(i))
	}
	return s
}

// solveAndCompare solves s with recomputeRates and a copy of its input
// with referenceRates. It requires identical bits in every active flow's
// rate and every link's load, and no link left holding a position.
func solveAndCompare(t testing.TB, s *Sim, stage string, detail any) {
	t.Helper()
	want := newRefSim(s)
	s.recomputeRates()
	referenceRates(want)
	for _, fi := range s.active {
		if g, w := s.flows[fi].rate, want.flows[fi].rate; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: flow %d rate %v (%#x), reference %v (%#x)\n%+v",
				stage, fi, g, math.Float64bits(g), w, math.Float64bits(w), detail)
		}
	}
	for l := range s.load {
		if g, w := s.load[l], want.load[l]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: link %d load %v (%#x), reference %v (%#x)\n%+v",
				stage, l, g, math.Float64bits(g), w, math.Float64bits(w), detail)
		}
	}
	for l, p := range s.pos {
		if p != -1 {
			t.Fatalf("%s: link %d keeps position %d after the solve", stage, l, p)
		}
	}
}

// checkAgainstReference solves the instance with both solvers and requires
// identical bits in every rate and load; then it retires every other flow,
// fails a link and solves again on the same Sim, so the scratch reused
// across solves (positions, tree, dirty marks) is exercised too.
func checkAgainstReference(t testing.TB, in fairInstance) {
	t.Helper()
	s := in.sim()
	solveAndCompare(t, s, "first solve", in)
	kept := s.active[:0]
	for i, fi := range s.active {
		if i%2 == 0 {
			kept = append(kept, fi)
		}
	}
	s.active = kept
	s.capac[0] = 0
	solveAndCompare(t, s, "after retiring flows and failing link 0", in)
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

		// The single-flow rule. Flow 0's kept link is link 0, which only
		// it crosses; flow 1 keeps shared link 1 and leaves link 2 out.
		"kept link single-flow": {capac: []float64{c / 2, c, c}, paths: [][]int32{{0, 1}, {1, 2}},
			withdrawn: make([]bool, 2)},
		// Flow 0 keeps dead link 1 and leaves dead link 3 out.
		"dead single-flow link": {capac: []float64{c, 0, c, 0}, paths: [][]int32{{0, 1, 3}, {0, 2}},
			withdrawn: make([]bool, 2)},
		// Flow 0 crosses single-flow links 0 and 2, of equal capacity,
		// before and after link 1, which three flows share. Link 0 and
		// link 1 tie at 1e9/3; link 0 wins by position and freezes flow 0
		// alone, so the other two get (1e9 - 1e9/3)/2, which is not
		// 1e9/3. Keeping link 2 instead would let link 1 freeze all three
		// at 1e9/3.
		"equal singles around a shared link": {capac: []float64{c / 3, c, c / 3},
			paths: [][]int32{{0, 1, 2}, {1}, {1}}, withdrawn: make([]bool, 3)},
		// The same with equal capacities everywhere, and with the shared
		// link numbered first.
		"equal capacities": {capac: []float64{c, c, c}, paths: [][]int32{{0, 1, 2}, {1}},
			withdrawn: make([]bool, 2)},
		"shared link first": {capac: []float64{c / 3, c, c / 3}, paths: [][]int32{{1}, {0, 1, 2}, {1}},
			withdrawn: make([]bool, 3)},
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

// TestFairShareSequenceMatchesReference solves one Sim hundreds of times.
// Between solves, flows arrive (into recycled slots too) and retire, paths
// change, routes are withdrawn and restored, and links fail and recover.
// Every solve must match referenceRates bit for bit, so scratch that one
// solve leaves behind for the next (positions, tree, marks, lists) cannot
// change an answer.
func TestFairShareSequenceMatchesReference(t *testing.T) {
	const c = 1e9
	rng := rand.New(rand.NewSource(38))
	capacities := []float64{c, c, c, c / 3, c / 7, c / 2}
	in := fairInstance{capac: make([]float64, 48)}
	for l := range in.capac {
		in.capac[l] = capacities[rng.Intn(len(capacities))]
	}
	nominal := append([]float64(nil), in.capac...)
	s := in.sim()
	path := func() []int32 {
		hops := 1 + rng.Intn(5)
		p := make([]int32, hops)
		for i, l := range rng.Perm(len(in.capac))[:hops] {
			p[i] = int32(l)
		}
		return p
	}
	var free []int32
	for solve := 0; solve < 400; solve++ {
		for k := rng.Intn(4); k > 0; k-- {
			st := &flowState{links: path(), withdrawn: rng.Intn(12) == 0}
			if n := len(free); n > 0 {
				s.flows[free[n-1]] = st
				s.active = append(s.active, free[n-1])
				free = free[:n-1]
			} else {
				s.flows = append(s.flows, st)
				s.active = append(s.active, int32(len(s.flows)-1))
			}
		}
		retire := rng.Intn(4)
		if len(s.active) > 30 {
			retire += 2
		}
		for ; retire > 0 && len(s.active) > 0; retire-- {
			i := rng.Intn(len(s.active))
			free = append(free, s.active[i])
			s.active = append(s.active[:i], s.active[i+1:]...)
		}
		for k := rng.Intn(3); k > 0 && len(s.active) > 0; k-- {
			st := s.flows[s.active[rng.Intn(len(s.active))]]
			if rng.Intn(4) == 0 {
				st.withdrawn = !st.withdrawn
			} else {
				st.links = path()
			}
		}
		if rng.Intn(3) == 0 {
			l := rng.Intn(len(s.capac))
			if s.capac[l] > 0 {
				s.capac[l] = 0
			} else {
				s.capac[l] = nominal[l]
			}
		}
		solveAndCompare(t, s, fmt.Sprintf("solve %d", solve), fmt.Sprintf("%d active flows", len(s.active)))
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
