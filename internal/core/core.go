// Package core implements MIFO's control side: the per-AS MIFO daemon the
// paper prototypes as a XORP module, and a Deployment that assembles a
// whole multi-AS router network (data plane included) from an AS-level
// topology and BGP routing tables.
//
// The daemon does three things, mirroring Section III and Fig. 10:
//
//  1. It mines the local BGP RIB for alternative paths — no protocol
//     changes, no extra messages (Section II-B).
//  2. It monitors the spare capacity of directly connected inter-AS links
//     — the paper's greedy substitute for end-to-end path measurement
//     (Section III-C) — and shares the measurements among the AS's border
//     routers (the iBGP measurement exchange).
//  3. It installs/updates the 'alt' port of the data-plane FIB so the
//     forwarding engine can deflect packets at line speed.
package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bgp"
	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/topo"
)

// Config parameterizes a Deployment.
type Config struct {
	// LinkCapacityBps is the capacity of every inter-AS link.
	// Default 1 Gbps, as in the paper's simulations.
	LinkCapacityBps float64
	// Capable marks MIFO-capable ASes; nil means full deployment.
	Capable []bool
	// ExpandASes lists ASes expanded to router level: one border router
	// per inter-AS link, full-mesh iBGP (the paper does this for tier-1
	// ASes in Section IV). All other ASes get a single border router.
	ExpandASes []int
	// CongestionThreshold overrides the routers' queue-ratio threshold
	// when > 0.
	CongestionThreshold float64
}

// Deployment is a fully wired MIFO network: the AS graph, the router-level
// data plane, and one daemon per AS.
type Deployment struct {
	Graph *topo.Graph
	Net   *dataplane.Network
	cfg   Config

	// routersOf[v] lists the border routers of AS v.
	routersOf [][]dataplane.RouterID
	// egress[v][u] locates AS v's eBGP attachment towards neighbor AS u.
	egress []map[int32]portRef
	// ibgp[r][s] is the iBGP port on router r facing sibling router s.
	ibgp map[dataplane.RouterID]map[dataplane.RouterID]int

	daemons []*Daemon // indexed by AS; nil for non-capable ASes
	// tables holds the installed per-destination routing tables, guarded
	// for concurrent access by the Runtime's daemon goroutines.
	tablesMu sync.RWMutex
	tables   *bgp.Table

	// FIB publication metrics, nil unless Instrument was called.
	fibCommit *obs.Histogram
	fibGen    *obs.GaugeVec

	// spans, when non-nil, traces the control pipeline: daemon_epoch and
	// fib_commit spans from here, fib_swap spans from the routers' FIBs
	// (SetTracer wires those through).
	spans *span.Tracer
}

// SetTracer attaches a span tracer to the deployment's control pipeline
// and to every router's FIB, so control epochs, per-router FIB commits,
// and data-plane generation swaps emit causally linked spans. Pass the
// parent context per call via RefreshAllCtx / InstallDestinationsCtx.
func (d *Deployment) SetTracer(tr *span.Tracer) {
	d.spans = tr
	for _, r := range d.Net.Routers {
		r.FIB.SetTracer(tr, int32(r.ID))
	}
}

type portRef struct {
	router dataplane.RouterID
	port   int
}

// NewDeployment builds the router network for graph g: routers, eBGP links
// with relationships and capacities, iBGP full meshes for expanded ASes,
// and a MIFO daemon on every capable AS. Non-capable ASes run legacy
// routers (forwarding engine present, MIFO disabled).
func NewDeployment(g *topo.Graph, cfg Config) *Deployment {
	if cfg.LinkCapacityBps <= 0 {
		cfg.LinkCapacityBps = 1e9
	}
	d := &Deployment{
		Graph:     g,
		Net:       dataplane.NewNetwork(),
		cfg:       cfg,
		routersOf: make([][]dataplane.RouterID, g.N()),
		egress:    make([]map[int32]portRef, g.N()),
		daemons:   make([]*Daemon, g.N()),
		ibgp:      make(map[dataplane.RouterID]map[dataplane.RouterID]int),
		tables:    bgp.NewTable(g, nil, 0),
	}
	expanded := make([]bool, g.N())
	for _, v := range cfg.ExpandASes {
		expanded[v] = true
	}
	capable := func(v int) bool { return cfg.Capable == nil || cfg.Capable[v] }

	// Create routers: one per inter-AS link for expanded ASes, one otherwise.
	for v := 0; v < g.N(); v++ {
		count := 1
		if expanded[v] && g.Degree(v) > 1 {
			count = g.Degree(v)
		}
		for i := 0; i < count; i++ {
			r := d.Net.AddRouter(int32(v))
			r.MIFOEnabled = capable(v)
			if cfg.CongestionThreshold > 0 {
				r.CongestionThreshold = cfg.CongestionThreshold
			}
			d.routersOf[v] = append(d.routersOf[v], r.ID)
		}
		d.egress[v] = make(map[int32]portRef, g.Degree(v))
	}

	// eBGP links. Expanded ASes dedicate one router per link, assigned in
	// neighbor order.
	next := make([]int, g.N()) // next unused router slot for expanded ASes
	slot := func(v int) dataplane.RouterID {
		rs := d.routersOf[v]
		if len(rs) == 1 {
			return rs[0]
		}
		id := rs[next[v]%len(rs)]
		next[v]++
		return id
	}
	for v := 0; v < g.N(); v++ {
		for _, nb := range g.Neighbors(v) {
			u := int(nb.AS)
			if u < v {
				continue // each undirected link wired once
			}
			rv, ru := slot(v), slot(u)
			pv, pu := d.Net.Connect(rv, ru, dataplane.EBGP, nb.Rel, cfg.LinkCapacityBps)
			d.egress[v][nb.AS] = portRef{router: rv, port: pv}
			d.egress[u][int32(v)] = portRef{router: ru, port: pu}
		}
	}

	// iBGP full meshes.
	for v := 0; v < g.N(); v++ {
		rs := d.routersOf[v]
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				pi, pj := d.Net.Connect(rs[i], rs[j], dataplane.IBGP, topo.Peer, 10*cfg.LinkCapacityBps)
				d.ibgpSet(rs[i], rs[j], pi)
				d.ibgpSet(rs[j], rs[i], pj)
			}
		}
	}

	// Daemons on capable ASes.
	for v := 0; v < g.N(); v++ {
		if capable(v) {
			d.daemons[v] = newDaemon(d, v)
		}
	}
	return d
}

func (d *Deployment) ibgpSet(r, sibling dataplane.RouterID, port int) {
	m := d.ibgp[r]
	if m == nil {
		m = make(map[dataplane.RouterID]int)
		d.ibgp[r] = m
	}
	m[sibling] = port
}

// Routers returns the border routers of AS v.
func (d *Deployment) Routers(v int) []*dataplane.Router {
	out := make([]*dataplane.Router, len(d.routersOf[v]))
	for i, id := range d.routersOf[v] {
		out[i] = d.Net.Router(id)
	}
	return out
}

// Daemon returns AS v's MIFO daemon, or nil when v is legacy.
func (d *Deployment) Daemon(v int) *Daemon { return d.daemons[v] }

// EgressPort locates AS v's attachment towards neighbor u.
func (d *Deployment) EgressPort(v, u int) (*dataplane.Router, int, error) {
	ref, ok := d.egress[v][int32(u)]
	if !ok {
		return nil, 0, fmt.Errorf("core: AS %d has no link to AS %d", v, u)
	}
	return d.Net.Router(ref.router), ref.port, nil
}

// InstallDestination programs every router's FIB with the default route for
// table t's destination and records the table for later daemon refreshes.
// Routers of the destination AS deliver locally. ASes without a route get
// no entry (their packets drop as no-route, matching an empty BGP table).
func (d *Deployment) InstallDestination(t *bgp.Dest) {
	d.InstallDestinations([]*bgp.Dest{t})
}

// InstallDestinations programs a batch of destinations with one FIB commit
// per router: N destinations cost each router one staged generation instead
// of N, which keeps bulk installation linear in table size.
func (d *Deployment) InstallDestinations(ts []*bgp.Dest) {
	d.InstallDestinationsCtx(ts, span.Context{})
}

// InstallDestinationsCtx is InstallDestinations with a causal parent:
// each router's FIB commit (and the generation swap below it) is traced
// as a child of parent.
func (d *Deployment) InstallDestinationsCtx(ts []*bgp.Dest, parent span.Context) {
	d.tablesMu.Lock()
	for _, t := range ts {
		d.tables.Install(t)
	}
	d.tablesMu.Unlock()
	// Each transaction holds its router's writer lock until commit;
	// forwarding lookups stay wait-free on the published generation.
	txs := make([]*dataplane.FIBTx, len(d.Net.Routers))
	for i, r := range d.Net.Routers {
		txs[i] = r.FIB.Begin()
		txs[i].TraceUnder(parent)
	}
	for _, t := range ts {
		dst := int32(t.Dst())
		for _, id := range d.routersOf[t.Dst()] {
			d.Net.Router(id).Local[dst] = true
		}
		for v := 0; v < d.Graph.N(); v++ {
			if v == t.Dst() {
				continue
			}
			if !t.Reachable(v) {
				// Withdrawn (or never-offered) route: the AS keeps no entry,
				// so its packets drop as no-route instead of following a
				// stale entry from an earlier install into a black hole.
				for _, id := range d.routersOf[v] {
					txs[id].Delete(dst)
				}
				continue
			}
			ref := d.egress[v][int32(t.NextHop(v))]
			for _, id := range d.routersOf[v] {
				if id == ref.router {
					txs[id].Set(dst, dataplane.FIBEntry{Out: ref.port, Alt: -1, AltVia: -1})
				} else {
					txs[id].Set(dst, dataplane.FIBEntry{
						Out: d.ibgp[id][ref.router], Alt: -1, AltVia: ref.router,
					})
				}
			}
		}
	}
	for i, tx := range txs {
		d.commitTx(tx, dataplane.RouterID(i), parent)
	}
}

// commitTx publishes one router's staged generation under a fib_commit
// span — the single Start site shared by epoch refreshes and bulk
// installs. Clean transactions commit without a span: nothing was
// published, so there is nothing to time.
func (d *Deployment) commitTx(tx *dataplane.FIBTx, id dataplane.RouterID, parent span.Context) uint64 {
	if !tx.Dirty() {
		return tx.Commit()
	}
	sp := d.spans.Start("fib_commit", parent, int32(id))
	gen := tx.Commit()
	sp.A = int64(gen)
	sp.End()
	return gen
}

// Instrument registers the deployment's FIB publication metrics on reg:
// core_fib_commit_seconds (histogram of one epoch's stage-and-publish
// latency per daemon) and core_fib_generation (gauge of each router's
// published FIB generation). Call before daemons start refreshing.
func (d *Deployment) Instrument(reg *obs.Registry) {
	d.fibCommit = reg.Histogram("core_fib_commit_seconds",
		"time for one daemon control epoch to stage and publish its routers' batched FIB updates", obs.DurationBuckets)
	d.fibGen = reg.GaugeVec("core_fib_generation",
		"published FIB generation per router; one increment per effective commit", "router")
}

// SetLinkLoad records the directional load (bits/s) on the link from AS v
// to AS u: the egress router's utilization and tx-queue ratio are updated,
// which is both the congestion signal and the daemon's measurement input.
func (d *Deployment) SetLinkLoad(v, u int, bps float64) error {
	ref, ok := d.egress[v][int32(u)]
	if !ok {
		return fmt.Errorf("core: AS %d has no link to AS %d", v, u)
	}
	r := d.Net.Router(ref.router)
	r.SetUtilization(ref.port, bps)
	ratio := bps / r.Ports[ref.port].CapacityBps
	if ratio > 1 {
		ratio = 1
	}
	r.SetQueueRatio(ref.port, ratio)
	return nil
}

// ResetLoads clears all utilization and queue signals.
func (d *Deployment) ResetLoads() {
	for _, r := range d.Net.Routers {
		for p := range r.Ports {
			r.SetUtilization(p, 0)
			r.SetQueueRatio(p, 0)
		}
	}
}

// Refresh runs every daemon's control epoch once: alternative paths are
// re-selected from the RIBs using current spare-capacity measurements and
// each router's FIB is republished in a single batched commit. Call it
// after load changes, as the periodic daemon would.
func (d *Deployment) Refresh() {
	tables := d.Tables()
	for _, dm := range d.daemons {
		if dm == nil {
			continue
		}
		dm.RefreshAll(tables)
	}
}

// Send forwards a packet from AS src towards dst through the data plane and
// reports the outcome. Flows originate at the AS's first border router.
func (d *Deployment) Send(flow dataplane.FlowKey, src, dst int) dataplane.Result {
	p := &dataplane.Packet{Flow: flow, Dst: int32(dst)}
	return d.Net.Send(p, d.routersOf[src][0])
}

// almostEqual guards float comparisons in tie-breaks.
func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}
