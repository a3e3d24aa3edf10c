package core

import (
	"strconv"
	"time"

	"repro/internal/bgp"
	"repro/internal/dataplane"
	"repro/internal/obs/span"
)

// Daemon is one AS's MIFO daemon. In the paper's prototype this is a XORP
// module per border router; here one daemon manages all border routers of
// an AS, which models the iBGP measurement exchange (each pair of border
// routers is an iBGP peer and shares link measurements over the existing
// TCP session, Section III-C).
type Daemon struct {
	dep *Deployment
	as  int
	// rib is the scratch buffer RIB mining reuses across the destinations of
	// one control epoch (see bgp.RIBInto). It makes RefreshAll and
	// RefreshDestination unsafe to call concurrently on the same daemon; the
	// Runtime gives each daemon exactly one goroutine, and the read-only
	// SelectAlternative does not touch it.
	rib []bgp.Alt
}

func newDaemon(dep *Deployment, as int) *Daemon {
	return &Daemon{dep: dep, as: as}
}

// AS returns the AS this daemon serves.
func (dm *Daemon) AS() int { return dm.as }

// Selection is the daemon's choice of alternative path for one destination.
type Selection struct {
	// Alt is the chosen RIB alternative.
	Alt bgp.Alt
	// Router owns the eBGP port to Alt.Via.
	Router dataplane.RouterID
	// Port is that eBGP port's index.
	Port int
	// SpareBps is the measured spare capacity of the local link — the
	// greedy proxy for path available bandwidth.
	SpareBps float64
}

// SelectAlternative implements Section III-C's greedy choice: among the
// RIB's alternatives (every entry except the default route), pick the one
// whose directly connected inter-AS link has the most spare capacity; ties
// fall back to standard route preference. ok is false when the RIB offers
// no alternative.
func (dm *Daemon) SelectAlternative(t *bgp.Dest) (sel Selection, ok bool) {
	sel, ok, _ = dm.selectInto(t, nil)
	return sel, ok
}

// selectInto is SelectAlternative with a caller-provided RIB scratch buffer
// (built in buf[:0], returned for reuse). The refresh path threads one
// buffer through a whole control epoch so per-destination selection does
// not allocate.
func (dm *Daemon) selectInto(t *bgp.Dest, buf []bgp.Alt) (sel Selection, ok bool, out []bgp.Alt) {
	if dm.as == t.Dst() || !t.Reachable(dm.as) {
		return Selection{}, false, buf
	}
	def := int32(t.NextHop(dm.as))
	buf = bgp.RIBInto(dm.dep.Graph, t, dm.as, buf)
	for _, alt := range buf {
		if alt.Via == def {
			continue // the default route is not an alternative
		}
		ref, exists := dm.dep.egress[dm.as][alt.Via]
		if !exists {
			continue
		}
		r := dm.dep.Net.Router(ref.router)
		spare := r.SpareCapacity(ref.port)
		cand := Selection{Alt: alt, Router: ref.router, Port: ref.port, SpareBps: spare}
		if !ok || better(cand, sel) {
			sel, ok = cand, true
		}
	}
	return sel, ok, buf
}

func better(a, b Selection) bool {
	if !almostEqual(a.SpareBps, b.SpareBps) {
		return a.SpareBps > b.SpareBps
	}
	return a.Alt.Better(b.Alt)
}

// RefreshAll runs one control epoch: it re-selects the alternative for
// every given destination and publishes the results as exactly one FIB
// commit per border router of the AS. The forwarding engine therefore sees
// either the whole previous epoch or the whole new one — never a half-
// updated mix — and the per-commit map copy is amortized over every
// destination instead of paid per entry.
func (dm *Daemon) RefreshAll(tables []*bgp.Dest) {
	dm.RefreshAllCtx(tables, span.Context{})
}

// RefreshAllCtx is RefreshAll with a causal parent: the whole epoch is
// traced as one daemon_epoch span, with one fib_commit child per border
// router that actually changed (and a fib_swap grandchild under each at
// the publication instant).
func (dm *Daemon) RefreshAllCtx(tables []*bgp.Dest, parent span.Context) {
	dep := dm.dep
	rs := dep.routersOf[dm.as]
	start := time.Now()
	ep := dep.spans.Start("daemon_epoch", parent, int32(dm.as))
	ep.A = int64(len(tables))
	txs := make([]*dataplane.FIBTx, len(rs))
	for i, id := range rs {
		txs[i] = dep.Net.Router(id).FIB.Begin()
		txs[i].TraceUnder(ep.Context())
	}
	for _, t := range tables {
		dm.refreshInto(txs, t)
	}
	for i, id := range rs {
		gen := dep.commitTx(txs[i], id, ep.Context())
		if dep.fibGen != nil {
			dep.fibGen.With(strconv.Itoa(int(id))).Set(float64(gen))
		}
	}
	ep.End()
	if dep.fibCommit != nil {
		dep.fibCommit.Observe(time.Since(start).Seconds())
	}
}

// RefreshDestination re-selects the alternative for one destination and
// rewrites the alt port on every border router of the AS: the router owning
// the chosen link points its alt at the eBGP port; every sibling points its
// alt at the iBGP port towards that owner (packets will be IP-in-IP
// encapsulated to it). It is a control epoch of one destination; use
// RefreshAll to batch.
func (dm *Daemon) RefreshDestination(t *bgp.Dest) {
	dm.RefreshAll([]*bgp.Dest{t})
}

// refreshInto stages one destination's alt re-selection into the epoch's
// per-router transactions (txs parallel to routersOf[dm.as]).
func (dm *Daemon) refreshInto(txs []*dataplane.FIBTx, t *bgp.Dest) {
	dst := int32(t.Dst())
	var sel Selection
	var ok bool
	sel, ok, dm.rib = dm.selectInto(t, dm.rib)
	rs := dm.dep.routersOf[dm.as]
	if !ok {
		for i := range rs {
			txs[i].SetAlt(dst, -1, -1)
		}
		return
	}
	for i, id := range rs {
		if id == sel.Router {
			r := dm.dep.Net.Router(id)
			txs[i].SetAlt(dst, sel.Port, r.Ports[sel.Port].Peer)
		} else {
			txs[i].SetAlt(dst, dm.dep.ibgp[id][sel.Router], sel.Router)
		}
	}
}
