// Package bgpsim is an event-driven, message-level BGP simulator for a
// single prefix: speakers exchange UPDATE messages (announce/withdraw) over
// the inter-AS sessions of a topo.Graph, apply valley-free export policy
// and standard route selection, and rate-limit advertisements with an MRAI
// timer.
//
// It serves three purposes in this reproduction:
//
//   - It cross-validates internal/bgp: the converged routes must equal the
//     static three-phase solver's output on every topology.
//   - It measures control-plane convergence time after failures — the
//     quantity MIFO's data-plane failover sidesteps and the justification
//     for netsim's ReconvergenceDelay.
//   - It counts UPDATE messages, grounding the paper's "zero overhead"
//     claim (Section II-B): MIFO adds no messages on top of BGP, unlike
//     MIRO's negotiation or PDAR's extra advertisements.
package bgpsim

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/eventq"
	"repro/internal/topo"
)

// The message-level dynamics are fixed.
const (
	// procDelay is per-message propagation plus processing time.
	procDelay = 0.05
	// defaultMRAI is the per-neighbor minimum route advertisement
	// interval (RFC 4271 suggests 30 s for eBGP, which would just scale
	// all convergence results linearly).
	defaultMRAI = 0.5
	// maxEvents bounds a Run.
	maxEvents = 10_000_000
)

// route is one announced path; nil *route means "no route".
type route struct {
	// path is the AS-level path [announcer, ..., dst].
	path []int32
}

func (r *route) contains(as int32) bool {
	if r == nil {
		return false
	}
	for _, v := range r.path {
		if v == as {
			return true
		}
	}
	return false
}

func (r *route) equal(o *route) bool {
	if r == nil || o == nil {
		return r == o
	}
	if len(r.path) != len(o.path) {
		return false
	}
	for i := range r.path {
		if r.path[i] != o.path[i] {
			return false
		}
	}
	return true
}

// speaker is one AS's BGP process for the prefix.
type speaker struct {
	as     int32
	origin bool

	adjIn    map[int32]*route // latest route announced by each neighbor
	best     *route           // selected route (nil = unreachable)
	bestFrom int32            // neighbor the best was learned from (-1)

	sent     map[int32]*route        // last advertisement per neighbor
	lastSend map[int32]float64       // MRAI bookkeeping
	pending  map[int32]*eventq.Event // scheduled per-neighbor send timers
}

// Sim is one single-prefix BGP network.
type Sim struct {
	g   *topo.Graph
	dst int
	// mrai is defaultMRAI; tests vary it.
	mrai float64

	speakers []*speaker
	sessions map[[2]int32]bool // down sessions are absent (true = up)

	q   eventq.Queue
	now float64

	// Messages counts UPDATEs delivered (announcements and withdrawals).
	Messages int
	// LastChange is the time of the last best-route change anywhere.
	LastChange float64
}

const (
	evDeliver = iota // a message arrives at a speaker
	evSend           // a speaker's per-neighbor MRAI timer fires
)

type message struct {
	from, to int32
	r        *route // nil = withdraw
}

type sendRef struct {
	as, neighbor int32
}

// New builds the simulator with every session up and the destination
// originating the prefix. Call Run to converge.
func New(g *topo.Graph, dst int) *Sim {
	s := &Sim{
		g:        g,
		dst:      dst,
		mrai:     defaultMRAI,
		sessions: make(map[[2]int32]bool),
	}
	s.speakers = make([]*speaker, g.N())
	for v := 0; v < g.N(); v++ {
		s.speakers[v] = &speaker{
			as:       int32(v),
			origin:   v == dst,
			bestFrom: -1,
			adjIn:    make(map[int32]*route),
			sent:     make(map[int32]*route),
			lastSend: make(map[int32]float64),
			pending:  make(map[int32]*eventq.Event),
		}
		for _, nb := range g.Neighbors(v) {
			if int32(v) < nb.AS {
				s.sessions[[2]int32{int32(v), nb.AS}] = true
			}
		}
	}
	org := s.speakers[dst]
	org.best = &route{path: []int32{int32(dst)}}
	org.bestFrom = -1
	s.scheduleExports(org)
	return s
}

func (s *Sim) sessionUp(a, b int32) bool {
	if a > b {
		a, b = b, a
	}
	return s.sessions[[2]int32{a, b}]
}

// Run processes events until the network is quiet or budget is exhausted.
// It returns an error after maxEvents events (persistent oscillation — cannot
// happen under valley-free policies, by Gao–Rexford stability).
func (s *Sim) Run() error {
	for n := 0; n < maxEvents; n++ {
		ev := s.q.Pop()
		if ev == nil {
			return nil
		}
		s.now = ev.Time
		switch ev.Kind {
		case evDeliver:
			m := ev.Data.(message)
			s.deliver(m)
		case evSend:
			ref := ev.Data.(sendRef)
			sp := s.speakers[ref.as]
			delete(sp.pending, ref.neighbor)
			s.flushNeighbor(sp, ref.neighbor)
		}
	}
	return fmt.Errorf("bgpsim: exceeded %d events without converging", maxEvents)
}

// deliver processes one UPDATE at its receiver.
func (s *Sim) deliver(m message) {
	if !s.sessionUp(m.from, m.to) {
		return // session died while the message was in flight
	}
	s.Messages++
	sp := s.speakers[m.to]
	if m.r == nil {
		delete(sp.adjIn, m.from)
	} else {
		sp.adjIn[m.from] = m.r
	}
	s.reselect(sp)
}

// reselect recomputes the best route and propagates changes.
func (s *Sim) reselect(sp *speaker) {
	if sp.origin {
		return // the origin's own route always wins
	}
	var best *route
	bestFrom := int32(-1)
	var bestClass bgp.Class
	for _, nb := range s.g.Neighbors(int(sp.as)) {
		r := sp.adjIn[nb.AS]
		if r == nil || r.contains(sp.as) {
			continue // no route or AS-path loop
		}
		class := classFromRel(nb.Rel)
		if best == nil || better(class, len(r.path), nb.AS, bestClass, len(best.path), bestFrom) {
			best, bestFrom, bestClass = r, nb.AS, class
		}
	}
	var newBest *route
	if best != nil {
		path := make([]int32, 0, len(best.path)+1)
		path = append(path, sp.as)
		path = append(path, best.path...)
		newBest = &route{path: path}
	}
	if newBest.equal(sp.best) && bestFrom == sp.bestFrom {
		return
	}
	sp.best = newBest
	sp.bestFrom = bestFrom
	s.LastChange = s.now
	s.scheduleExports(sp)
}

func classFromRel(rel topo.Rel) bgp.Class {
	switch rel {
	case topo.Customer:
		return bgp.ClassCustomer
	case topo.Peer:
		return bgp.ClassPeer
	default:
		return bgp.ClassProvider
	}
}

// better implements standard selection: class, then path length, then
// lowest announcing neighbor.
func better(c bgp.Class, l int, from int32, bc bgp.Class, bl int, bfrom int32) bool {
	if c != bc {
		return c < bc
	}
	if l != bl {
		return l < bl
	}
	return from < bfrom
}

// export returns what sp advertises to neighbor n under valley-free policy
// (nil = nothing / withdraw).
func (s *Sim) export(sp *speaker, n topo.Neighbor) *route {
	if sp.best == nil {
		return nil
	}
	if !sp.origin {
		// Routes from peers/providers go only to customers.
		rel, _ := s.g.Rel(int(sp.as), int(sp.bestFrom))
		if rel != topo.Customer && n.Rel != topo.Customer {
			return nil
		}
		// Split horizon: never advertise back to the neighbor that gave
		// us the route (it would be loop-filtered anyway).
		if n.AS == sp.bestFrom {
			return nil
		}
	}
	return sp.best
}

// scheduleExports arms the per-neighbor send timers after a best change.
func (s *Sim) scheduleExports(sp *speaker) {
	for _, nb := range s.g.Neighbors(int(sp.as)) {
		if !s.sessionUp(sp.as, nb.AS) {
			continue
		}
		if _, armed := sp.pending[nb.AS]; armed {
			continue // a pending timer will pick up the latest state
		}
		want := s.export(sp, nb)
		if want.equal(sp.sent[nb.AS]) {
			continue
		}
		at := s.now
		if last, sentBefore := sp.lastSend[nb.AS]; sentBefore {
			if next := last + s.mrai; next > at {
				at = next
			}
		}
		sp.pending[nb.AS] = s.q.Push(at, evSend, sendRef{as: sp.as, neighbor: nb.AS})
	}
}

// flushNeighbor sends the current advertisement to one neighbor if it
// still differs from what was last sent.
func (s *Sim) flushNeighbor(sp *speaker, neighbor int32) {
	if !s.sessionUp(sp.as, neighbor) {
		return
	}
	var nb topo.Neighbor
	found := false
	for _, cand := range s.g.Neighbors(int(sp.as)) {
		if cand.AS == neighbor {
			nb = cand
			found = true
			break
		}
	}
	if !found {
		return
	}
	want := s.export(sp, nb)
	if want.equal(sp.sent[neighbor]) {
		return
	}
	sp.sent[neighbor] = want
	sp.lastSend[neighbor] = s.now
	s.q.Push(s.now+procDelay, evDeliver, message{from: sp.as, to: neighbor, r: want})
}

// FailLink tears down the session between a and b: both sides drop the
// adjacency's routes and repropagate. Call Run afterwards to converge; the
// returned LastChange minus the failure time is the reconvergence latency.
func (s *Sim) FailLink(a, b int) error {
	ka, kb := int32(a), int32(b)
	if ka > kb {
		ka, kb = kb, ka
	}
	if !s.sessions[[2]int32{ka, kb}] {
		return fmt.Errorf("bgpsim: no session between %d and %d", a, b)
	}
	delete(s.sessions, [2]int32{ka, kb})
	for _, pair := range [2][2]int32{{int32(a), int32(b)}, {int32(b), int32(a)}} {
		sp := s.speakers[pair[0]]
		delete(sp.adjIn, pair[1])
		delete(sp.sent, pair[1])
		if e, ok := sp.pending[pair[1]]; ok {
			s.q.Cancel(e)
			delete(sp.pending, pair[1])
		}
		s.reselect(sp)
	}
	return nil
}

// RestoreLink re-establishes a failed session: both sides re-advertise
// their current best routes over it, as BGP does when a session comes back
// up. Call Run afterwards to converge.
func (s *Sim) RestoreLink(a, b int) error {
	ka, kb := int32(a), int32(b)
	if ka > kb {
		ka, kb = kb, ka
	}
	if s.sessions[[2]int32{ka, kb}] {
		return fmt.Errorf("bgpsim: session between %d and %d is already up", a, b)
	}
	if !s.g.HasLink(a, b) {
		return fmt.Errorf("bgpsim: no link between %d and %d", a, b)
	}
	s.sessions[[2]int32{ka, kb}] = true
	// Fresh session: nothing has been sent on it yet.
	for _, pair := range [2][2]int32{{int32(a), int32(b)}, {int32(b), int32(a)}} {
		sp := s.speakers[pair[0]]
		delete(sp.sent, pair[1])
		delete(sp.lastSend, pair[1])
		s.scheduleExports(sp)
	}
	return nil
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// Best returns the converged AS path at v, or nil.
func (s *Sim) Best(v int) []int32 {
	if s.speakers[v].best == nil {
		return nil
	}
	return s.speakers[v].best.path
}

// Reachable reports whether v currently has a route.
func (s *Sim) Reachable(v int) bool { return s.speakers[v].best != nil }
