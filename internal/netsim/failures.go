package netsim

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/topo"
)

// LinkFailure describes one injected failure of an undirected inter-AS
// link: both directions die at At and come back at RecoverAt (0 = never).
type LinkFailure struct {
	A, B      int
	At        float64
	RecoverAt float64
}

// handleFail kills both directions of the link and lets the policies react:
// MIFO-capable ASes adjacent to the failure deflect affected flows on the
// data plane immediately (a dead egress is the ultimate congestion signal);
// everything else waits for control-plane reconvergence.
func (s *Sim) handleFail(f LinkFailure) {
	s.capac[s.linkID(f.A, f.B)] = 0
	s.capac[s.linkID(f.B, f.A)] = 0
	if s.repairedTab == nil {
		s.repairedTab = s.tab.Clone()
	}
	s.linkDownRepair(f)
	s.lastChangeAt = s.now

	for _, fi := range s.active {
		st := s.flows[fi]
		if !s.crossesDead(st.links) {
			continue
		}
		if s.cfg.Policy == PolicyMIFO {
			// Fast data-plane failover: the dead hop reads as congested,
			// so the standard deflection logic applies right now.
			s.adaptFlow(st, s.tab.Dest(st.Dst))
		}
		if s.crossesDead(st.links) {
			s.scheduleRepair(int(fi))
		}
	}
	s.afterTopologyChange()
}

// handleRecover restores the link and schedules control-plane convergence
// back to the original best paths.
func (s *Sim) handleRecover(f LinkFailure) {
	s.capac[s.linkID(f.A, f.B)] = s.cfg.LinkCapacityBps
	s.capac[s.linkID(f.B, f.A)] = s.cfg.LinkCapacityBps
	if s.repairedTab != nil {
		s.linkUpRepair(f)
	}
	s.lastChangeAt = s.now

	// Every flow's control-plane route converges back towards the original
	// best path after the delay (the handler is a no-op for flows already
	// there); MIFO's data-plane deviations (onAlt) are untouched.
	for _, fi := range s.active {
		if !s.flows[fi].onAlt {
			s.scheduleRepair(int(fi))
		}
	}
	s.afterTopologyChange()
}

// handleReconverge applies the repaired control-plane route to one flow.
func (s *Sim) handleReconverge(fi int) {
	st := s.flows[fi]
	st.repairEvt = nil
	if st.done || st.unroutable || st.onAlt {
		return
	}
	table := s.repairedTable(st.Dst)
	if table == nil || !table.Reachable(st.Src) {
		// The destination is unreachable: the route is withdrawn and the
		// flow stays black-holed until a later reconvergence (triggered
		// by recovery) restores one.
		if !st.withdrawn {
			st.withdrawn = true
			s.afterTopologyChange()
		}
		return
	}
	walked := table.ASPathInto(st.Src, s.pathScratch)
	s.pathScratch = walked[:0]
	if samePath(walked, st.path) && !st.withdrawn {
		return
	}
	newPath := append([]int(nil), walked...) // escaping: flow state keeps it
	st.withdrawn = false
	s.setPath(st, newPath, st.rate)
	st.reroutes++
	// The repaired route is the flow's default until topology changes back.
	st.defPath = newPath
	s.recordFlowPath(st, -1)
	s.afterTopologyChange()
}

// scheduleRepair arms (once) the control-plane reconvergence timer for a
// flow. Convergence is network-wide: it completes ReconvergenceDelay after
// the topology change, so a flow arriving into an already-converged
// network is repaired immediately rather than waiting its own full delay.
// MIFO ASes run the same BGP underneath, so the fallback applies to every
// policy; MIFO's advantage is the instant data-plane reaction.
func (s *Sim) scheduleRepair(fi int) {
	st := s.flows[fi]
	if st.repairEvt != nil && !st.repairEvt.Canceled() {
		return
	}
	at := s.lastChangeAt + s.cfg.ReconvergenceDelay
	if at < s.now {
		at = s.now
	}
	st.repairEvt = s.queue.Push(at, evReconverge, int32(fi))
}

// repairedTable returns the BGP table for dst on the current (possibly
// degraded) topology. The repaired table is maintained incrementally — each
// link event only recomputed the destinations it could affect, and
// untouched destinations still share the intact table's memory — so this is
// a plain map read, never a from-scratch compute.
func (s *Sim) repairedTable(dst int) *bgp.Dest {
	if s.repairedTab == nil {
		return s.tab.Dest(dst)
	}
	return s.repairedTab.Dest(dst)
}

// crossesDead reports whether any link of the path has failed.
func (s *Sim) crossesDead(links []int32) bool {
	for _, l := range links {
		if s.capac[l] <= 0 {
			return true
		}
	}
	return false
}

// validateFailures rejects a failure that names no inter-AS link of g. Run
// and RunStream call it before simulating, so a mistyped failure is an
// error and not a clean run with no failure in it; the handlers rely on it.
func validateFailures(g *topo.Graph, failures []LinkFailure) error {
	n := g.N()
	for i, f := range failures {
		if f.A < 0 || f.A >= n || f.B < 0 || f.B >= n {
			return fmt.Errorf("netsim: failure %d names link %d-%d, outside the AS range [0, %d)", i, f.A, f.B, n)
		}
		if !g.HasLink(f.A, f.B) {
			return fmt.Errorf("netsim: failure %d names link %d-%d, which the topology does not have", i, f.A, f.B)
		}
	}
	return nil
}

func samePath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
