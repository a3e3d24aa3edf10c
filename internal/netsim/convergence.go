package netsim

import (
	"repro/internal/core"
	"repro/internal/obs/span"
)

// Convergence tracing.
//
// When Config.Spans carries a tracer, every injected link event becomes one
// causal span tree: a root span (conv_link_down / conv_link_up) opened at
// the moment the event is applied, with the whole repair pipeline under it —
// the control plane's incremental route recompute (route_recompute and its
// per-destination dest_recompute children, emitted by bgp.Table), then the
// daemon epochs, per-router FIB commits, and data-plane generation swaps the
// new routes cause. The root closes only after every affected router has
// republished, so its duration is the wall-clock time from failure event to
// data-plane consistency — the quantity `mifo-inspect spans` turns into convergence
// CDFs and per-stage breakdowns.
//
// The flow-level simulator has no routers of its own, so the data-plane half
// runs on a mirror: a real core.Deployment over the same AS graph (one
// border router per AS, dense map FIBs), kept consistent with the repaired
// control-plane tables. The mirror's initial installation is untraced — the
// tracer is attached only after it, so the first traced spans belong to the
// first link event rather than to setup.

// tracing reports whether link events should be traced.
func (s *Sim) tracing() bool { return s.cfg.Spans.Enabled() }

// ensureMirror lazily builds the router-level mirror deployment.
func (s *Sim) ensureMirror() *core.Deployment {
	if s.mirror == nil {
		s.mirror = core.NewDeployment(s.g, core.Config{LinkCapacityBps: linkCapacityBps})
		s.mirror.InstallDestinations(s.tab.All())
		s.mirror.SetTracer(s.cfg.Spans)
	}
	return s.mirror
}

// linkDownRepair runs the control-plane repair for one failed link,
// wrapped in a conv_link_down root span when tracing. Node -1 marks a
// network-scope event; A/B carry the endpoints and V the virtual
// simulation time of the injection.
func (s *Sim) linkDownRepair(f LinkFailure) {
	if !s.tracing() || s.repairedTab.LinkFailed(f.A, f.B) {
		s.repairedTab.LinkDown(f.A, f.B)
		return
	}
	root := s.cfg.Spans.StartRoot("conv_link_down", -1)
	root.A, root.B = int64(f.A), int64(f.B)
	root.V = s.now
	if s.repairedTab.LinkDownCtx(f.A, f.B, root.Context()) > 0 {
		s.mirrorConverge(root.Context(), f)
	}
	root.End()
}

// linkUpRepair is linkDownRepair's counterpart for a recovered link.
func (s *Sim) linkUpRepair(f LinkFailure) {
	if !s.tracing() || !s.repairedTab.LinkFailed(f.A, f.B) {
		s.repairedTab.LinkUp(f.A, f.B)
		return
	}
	root := s.cfg.Spans.StartRoot("conv_link_up", -1)
	root.A, root.B = int64(f.A), int64(f.B)
	root.V = s.now
	if s.repairedTab.LinkUpCtx(f.A, f.B, root.Context()) > 0 {
		s.mirrorConverge(root.Context(), f)
	}
	root.End()
}

// mirrorConverge pushes the repaired tables through the mirror deployment
// under parent: reinstall every destination (changed default routes and
// withdrawals become per-router FIB commits; untouched routers commit
// clean and stay silent), then run a daemon control epoch on each endpoint
// AS so alternative re-selection is part of the traced pipeline.
func (s *Sim) mirrorConverge(parent span.Context, f LinkFailure) {
	dep := s.ensureMirror()
	tables := s.repairedTab.All()
	dep.InstallDestinationsCtx(tables, parent)
	dep.Daemon(f.A).RefreshAllCtx(tables, parent)
	dep.Daemon(f.B).RefreshAllCtx(tables, parent)
}
