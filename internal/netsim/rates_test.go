package netsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// loads, the link map and the flows, which arrive in order through
// activate. The solver's slabs grow on the first solve.
func (in fairInstance) sim() *Sim {
	n := len(in.capac)
	s := &Sim{
		numLinks: n,
		capac:    append([]float64(nil), in.capac...),
		load:     make([]float64, n),
	}
	s.fair.init(n)
	for i, p := range in.paths {
		s.flows = append(s.flows, &flowState{ord: i, fi: int32(i), links: p, withdrawn: in.withdrawn[i]})
		s.activate(int32(i))
	}
	return s
}

// solveAndCompare solves s with recomputeRates and a copy of its input
// with referenceRates. It requires identical bits in every active flow's
// rate and every link's load, and a membership equal to a recount from
// the active flows' links (checkMembership).
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
	checkMembership(t, s, stage)
}

// checkMembership recounts the solver's membership from the active flows'
// links and requires the kept one to equal it: every crossed link has a
// slot with its capacity, its member flows (as a multiset) and its
// first-crossing key; no other link has one; the live slots are in key
// order; and every member flow's path lists its links' slots and keeps
// the first of its smallest-capacity links. The keys rely on the active
// flows being in arrival order, so that is checked too.
func checkMembership(t testing.TB, s *Sim, stage string) {
	t.Helper()
	f := &s.fair
	on := make(map[int32][]int32)
	key := make(map[int32]int64)
	members := 0
	for i, fi := range s.active {
		st := s.flows[fi]
		if i > 0 && st.ord <= s.flows[s.active[i-1]].ord {
			t.Fatalf("%s: active flows out of arrival order at %d", stage, i)
		}
		isMember := int(fi) < len(f.flows) && f.flows[fi].member()
		if isMember == st.withdrawn {
			t.Fatalf("%s: flow %d withdrawn=%v but member=%v", stage, fi, st.withdrawn, isMember)
		}
		if st.withdrawn {
			continue
		}
		members++
		run := f.flows[fi].slots
		if len(run) != len(st.links) {
			t.Fatalf("%s: flow %d has %d link slots for %d links", stage, fi, len(run), len(st.links))
		}
		kept := -1
		for i, l := range st.links {
			if kept < 0 || s.capac[l] < s.capac[st.links[kept]] {
				kept = i
			}
			if run[i] != f.slotOf[l] {
				t.Fatalf("%s: flow %d link %d has slot %d, the map says %d", stage, fi, l, run[i], f.slotOf[l])
			}
			if _, ok := key[l]; !ok {
				key[l] = flowKey(st.ord, i)
			}
			on[l] = append(on[l], fi)
		}
		if kept >= 0 && f.flows[fi].kept != run[kept] {
			t.Fatalf("%s: flow %d keeps slot %d, recount %d", stage, fi, f.flows[fi].kept, run[kept])
		}
	}
	if members != f.members {
		t.Fatalf("%s: %d member flows counted, %d kept", stage, members, f.members)
	}
	live := 0
	for l, p := range f.slotOf {
		l := int32(l)
		if p < 0 {
			if len(on[l]) > 0 {
				t.Fatalf("%s: link %d is crossed by %v but has no slot", stage, l, on[l])
			}
			continue
		}
		live++
		got := slices.Clone(f.on.run(p))
		slices.Sort(got)
		want := on[l]
		slices.Sort(want)
		switch {
		case f.links[p].link != l:
			t.Fatalf("%s: link %d's slot %d holds link %d", stage, l, p, f.links[p].link)
		case !slices.Equal(got, want):
			t.Fatalf("%s: link %d keeps members %v, recount %v", stage, l, got, want)
		case f.links[p].key != key[l]:
			t.Fatalf("%s: link %d keeps key %#x, recount %#x", stage, l, f.links[p].key, key[l])
		case math.Float64bits(f.links[p].capac) != math.Float64bits(s.capac[l]):
			t.Fatalf("%s: link %d keeps capacity %v, the link has %v", stage, l, f.links[p].capac, s.capac[l])
		}
	}
	if len(f.order) != live || !slices.IsSortedFunc(f.order, func(a, b int32) int { return cmp.Compare(f.links[a].key, f.links[b].key) }) {
		t.Fatalf("%s: order %v is not the %d live slots by key", stage, f.order, live)
	}
}

// checkAgainstReference solves the instance with both solvers and requires
// identical bits in every rate and load; then it retires every other flow,
// fails a link and solves again on the same Sim, so the state kept across
// solves (membership, freeze order, tree, marks) is exercised too.
func checkAgainstReference(t testing.TB, in fairInstance) {
	t.Helper()
	s := in.sim()
	solveAndCompare(t, s, "first solve", in)
	kept := s.active[:0]
	for i, fi := range s.active {
		if i%2 == 0 {
			kept = append(kept, fi)
		} else {
			s.leave(fi)
		}
	}
	s.active = kept
	s.setCapacity(0, 0)
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
// change, routes are withdrawn and restored, and links fail and recover,
// all through the methods the simulator calls. Every solve must match
// referenceRates bit for bit and keep a membership equal to a recount, so
// neither the state one solve leaves for the next (membership, freeze
// order, tree, marks) nor where it resumes can change an answer.
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
	ord := len(s.flows)
	arrive := func() {
		fi := int32(len(s.flows))
		if n := len(free); n > 0 {
			fi = free[n-1]
			free = free[:n-1]
		} else {
			s.flows = append(s.flows, nil)
		}
		s.flows[fi] = &flowState{ord: ord, fi: fi, links: path(), withdrawn: rng.Intn(12) == 0}
		ord++
		s.activate(fi)
	}
	retire := func() {
		i := rng.Intn(len(s.active))
		s.leave(s.active[i])
		free = append(free, s.active[i])
		s.active = append(s.active[:i], s.active[i+1:]...)
	}
	move := func() {
		st := s.flows[s.active[rng.Intn(len(s.active))]]
		if rng.Intn(4) == 0 {
			s.setWithdrawn(st, !st.withdrawn)
		} else {
			s.relink(st, path())
		}
	}
	for solve := 0; solve < 400; solve++ {
		// Half the solves follow one kind of event alone, so that a solve
		// resumes deep into the last one's rounds; the rest follow a mix.
		switch mode := rng.Intn(8); {
		case mode == 0 || len(s.active) == 0:
			arrive()
		case mode == 1:
			retire()
		case mode == 2:
			move()
		case mode == 3:
			l := int32(rng.Intn(len(s.capac)))
			s.setCapacity(l, capacities[rng.Intn(len(capacities))])
		default:
			for k := rng.Intn(4); k > 0; k-- {
				arrive()
			}
			n := rng.Intn(4)
			if len(s.active) > 30 {
				n += 2
			}
			for ; n > 0 && len(s.active) > 0; n-- {
				retire()
			}
			for k := rng.Intn(3); k > 0 && len(s.active) > 0; k-- {
				move()
			}
			if rng.Intn(3) == 0 {
				l := int32(rng.Intn(len(s.capac)))
				if s.capac[l] > 0 {
					s.setCapacity(l, 0)
				} else {
					s.setCapacity(l, nominal[l])
				}
			}
		}
		solveAndCompare(t, s, fmt.Sprintf("solve %d", solve), fmt.Sprintf("%d active flows", len(s.active)))
	}
}

// TestResumeMatchesReference holds one case per rule of resume: each
// solve after the first resumes from the one before, and must match
// referenceRates bit for bit.
func TestResumeMatchesReference(t *testing.T) {
	const c = 1e9
	arrive := func(links ...int32) func(*Sim) {
		return func(s *Sim) {
			fi := int32(len(s.flows))
			s.flows = append(s.flows, &flowState{ord: int(fi), fi: fi, links: links})
			s.activate(fi)
		}
	}
	move := func(fi int32, links ...int32) func(*Sim) {
		return func(s *Sim) { s.relink(s.flows[fi], links) }
	}
	cases := map[string]struct {
		capac []float64
		steps []func(*Sim)
	}{
		// Flow 1 joins the link of round 1, so the solve must resume at
		// round 1 and not replay it.
		"joiner on the first round's bottleneck": {
			capac: []float64{c},
			steps: []func(*Sim){arrive(0), arrive(0)},
		},
		// Round 1 freezes flow 1 on link 2 at c/3. Flow 2 joins link 1,
		// whose share becomes c/3 too; link 1's key is flow 0's, below
		// link 2's, so link 1 wins round 1 and all three flows get c/3.
		// Replaying round 1 would give flows 0 and 2 (c - c/3)/2, which
		// is not c/3.
		"joiner ties the bottleneck with a smaller key": {
			capac: []float64{0, c, c / 3},
			steps: []func(*Sim){arrive(1), arrive(1, 2), arrive(1)},
		},
		// Flow 1 froze in round 1 on link 1, with flow 2, and moves to
		// link 2, which beats no round: round 1 is its old freeze round.
		"moved flow's old freeze round": {
			capac: []float64{c, c / 3, c},
			steps: []func(*Sim){arrive(0), arrive(0, 1), arrive(1), move(1, 2)},
		},
		// Link 0 fails under its only flow.
		"capacity change": {
			capac: []float64{c},
			steps: []func(*Sim){arrive(0), func(s *Sim) { s.setCapacity(0, 0) }},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s := fairInstance{capac: tc.capac}.sim()
			for i, step := range tc.steps {
				step(s)
				solveAndCompare(t, s, fmt.Sprintf("solve %d", i+1), name)
			}
		})
	}
}

// TestSlabMatchesLists runs random pushes and removes on a slab's owners,
// enough to move runs many times, and requires every run to hold what a
// plain list per owner holds and the buffer to stay within twice the
// owners' rooms.
func TestSlabMatchesLists(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var b slab
	var want [][]int32
	for step := 0; step < 20000; step++ {
		if len(want) < 64 && rng.Intn(50) == 0 {
			b.owner()
			want = append(want, nil)
			continue
		}
		if len(want) == 0 {
			continue
		}
		o := int32(rng.Intn(len(want)))
		if n := len(want[o]); n > 0 && rng.Intn(3) == 0 {
			v := want[o][rng.Intn(n)]
			b.remove(o, v)
			i := slices.Index(want[o], v)
			want[o] = slices.Delete(want[o], i, i+1)
		} else {
			v := int32(rng.Intn(1000))
			b.push(o, v)
			want[o] = append(want[o], v)
		}
		if step%97 == 0 {
			for o := range want {
				got := slices.Clone(b.run(int32(o)))
				w := slices.Clone(want[o])
				slices.Sort(got)
				slices.Sort(w)
				if !slices.Equal(got, w) {
					t.Fatalf("step %d: owner %d holds %v, want %v", step, o, got, w)
				}
			}
			rooms := 0
			for _, r := range b.runs {
				rooms += int(r.c)
			}
			if len(b.buf) > 2*rooms {
				t.Fatalf("step %d: buffer of %d for rooms of %d", step, len(b.buf), rooms)
			}
		}
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

// FuzzFairShareSequence decodes bytes into events on one Sim, applied
// through the methods the simulator calls: a flow arrives (activate),
// retires (leave), moves (relink), loses or regains its route
// (setWithdrawn), or a link fails or recovers (setCapacity). Several
// events may come between two solves, so a solve resumes past changes of
// every kind at once. Every solve must match referenceRates bit for bit
// on every rate and load, and the kept membership must equal a recount.
//
// Byte 0 picks the link count and one byte per link its capacity. Then
// each event is an op byte: op%8 picks the event (0-1 arrive, 2 retire,
// 3 move, 4 withdraw or restore, 5 fail or recover, 6-7 solve only),
// op&0x80 asks for a solve after it. Arrive and move read a path (a
// header byte with the hop count and withdrawn bit, then a byte per
// hop), the others an index byte. A sequence has at most 64 events, and
// a solve ends it.
func FuzzFairShareSequence(f *testing.F) {
	f.Add([]byte{})
	// Two flows join one link between solves; the second joins with an
	// earlier arrival than the link's first crosser by moving.
	f.Add([]byte{2, 1, 1, 0x80, 0x01, 0, 1, 0x80, 0x01, 1, 0, 0x00, 0x00, 0, 0x83, 0, 0x00, 1})
	// A flow leaves a link another joins in the same step.
	f.Add([]byte{3, 1, 2, 3, 0x00, 0x02, 0, 1, 2, 0x00, 0x01, 1, 2, 0x86, 0x02, 0, 0x03, 0, 0x01, 1, 2, 0x80, 0x01, 2})
	// A failure, a withdrawal and a recovery.
	f.Add([]byte{2, 1, 3, 0x00, 0x01, 0, 1, 0x80, 0x00, 1, 0x85, 0, 0x84, 0, 0x85, 0, 0x84, 1, 0x86})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		capacities := []float64{0, 1e9, 1e9 / 3, 5e8, 1e9 / 7, 3e9}
		nominal := make([]float64, 1+int(next()%16))
		for l := range nominal {
			nominal[l] = capacities[int(next())%len(capacities)]
		}
		s := fairInstance{capac: nominal}.sim()
		path := func() ([]int32, bool) {
			h := next()
			var p []int32
			for i := 0; i < 1+int(h&3); i++ {
				if l := int32(int(next()) % len(nominal)); !slices.Contains(p, l) {
					p = append(p, l)
				}
			}
			return p, h&0x10 != 0
		}
		pick := func() *flowState {
			if len(s.active) == 0 {
				next()
				return nil
			}
			return s.flows[s.active[int(next())%len(s.active)]]
		}
		var free []int32
		ord, solves := 0, 0
		for events := 0; len(data) > 0 && events < 64; events++ {
			op := next()
			switch op % 8 {
			case 0, 1:
				links, withdrawn := path()
				fi := int32(len(s.flows))
				if n := len(free); n > 0 {
					fi = free[n-1]
					free = free[:n-1]
				} else {
					s.flows = append(s.flows, nil)
				}
				s.flows[fi] = &flowState{ord: ord, fi: fi, links: links, withdrawn: withdrawn}
				ord++
				s.activate(fi)
			case 2:
				if st := pick(); st != nil {
					s.leave(st.fi)
					s.active = slices.DeleteFunc(s.active, func(fi int32) bool { return fi == st.fi })
					free = append(free, st.fi)
				}
			case 3:
				st := pick()
				if links, _ := path(); st != nil {
					s.relink(st, links)
				}
			case 4:
				if st := pick(); st != nil {
					s.setWithdrawn(st, !st.withdrawn)
				}
			case 5:
				l := int32(int(next()) % len(nominal))
				c := nominal[l]
				if s.capac[l] == c {
					c = 0
				}
				s.setCapacity(l, c)
			}
			if op&0x80 != 0 || op%8 >= 6 {
				solveAndCompare(t, s, fmt.Sprintf("solve %d", solves), fmt.Sprintf("after event %d", events))
				solves++
			}
		}
		solveAndCompare(t, s, "final solve", fmt.Sprintf("%d solves before", solves))
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
