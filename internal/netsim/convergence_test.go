package netsim

import (
	"bytes"
	"testing"

	"repro/internal/bgp"
	"repro/internal/obs/span"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// runTraced runs a sim with a span tracer attached and returns the
// analyzed span log.
func runTraced(t *testing.T, g *topo.Graph, flows []traffic.Flow, cfg Config) *span.Report {
	t.Helper()
	var buf bytes.Buffer
	tr := span.New(span.Options{Writer: &buf})
	cfg.Spans = tr
	if _, err := Run(g, flows, cfg); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := span.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return span.Analyze(recs)
}

// Every injected link event must open exactly one root span, and every
// event must reach data-plane consistency: the repair pipeline under the
// root carries recompute, daemon epoch, FIB commit, and generation swap
// spans in causal order.
func TestConvergenceTracingCoversEveryFailure(t *testing.T) {
	g := failGraph(t)
	flows := []traffic.Flow{{ID: 0, Src: 3, Dst: 0, SizeBits: 100 * mb, Arrival: 0}}
	rep := runTraced(t, g, flows, Config{
		Policy:             PolicyBGP,
		Failures:           []LinkFailure{{A: 3, B: 1, At: 0.2, RecoverAt: 1.0}},
		ReconvergenceDelay: 0.5,
	})

	if len(rep.Events) != 2 {
		t.Fatalf("events = %d, want 2 (one down, one up)", len(rep.Events))
	}
	if rep.OrphanTraces != 0 {
		t.Errorf("orphan traces = %d, want 0", rep.OrphanTraces)
	}
	down, up := rep.Events[0], rep.Events[1]
	if down.Root.Name != span.RootLinkDown || up.Root.Name != span.RootLinkUp {
		t.Fatalf("root names = %q, %q", down.Root.Name, up.Root.Name)
	}
	for _, ev := range rep.Events {
		if !ev.Complete {
			t.Errorf("%s (%d-%d) incomplete: %s", ev.Root.Name, ev.Root.A, ev.Root.B, ev.Why)
		}
		if ev.Dirty == 0 {
			t.Errorf("%s recomputed no destinations; the failed link is on the default path", ev.Root.Name)
		}
		for _, stage := range []string{"route_recompute", "daemon_epoch", "fib_commit", "fib_swap"} {
			if ev.Stage[stage].Count == 0 {
				t.Errorf("%s has no %s span", ev.Root.Name, stage)
			}
		}
		if ev.Root.A != 3 || ev.Root.B != 1 {
			t.Errorf("%s endpoints = (%d, %d), want (3, 1)", ev.Root.Name, ev.Root.A, ev.Root.B)
		}
	}
	if got := rep.CompleteEvents(); got != 2 {
		t.Errorf("complete events = %d, want 2", got)
	}
}

// A failure of a link no destination routes over must still be traced
// (the operator wants to see the event) and judged complete with zero
// dirty destinations and no data-plane work.
func TestConvergenceTracingZeroDirtyEvent(t *testing.T) {
	g := failGraph(t)
	flows := []traffic.Flow{{ID: 0, Src: 3, Dst: 0, SizeBits: 10 * mb, Arrival: 0}}
	rep := runTraced(t, g, flows, Config{
		Policy: PolicyBGP,
		// 3-2 is the unused alternative: dst 0's route tree (0<-1<-3,
		// 0<-2) does not traverse it.
		Failures: []LinkFailure{{A: 3, B: 2, At: 0.01}},
	})
	if len(rep.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(rep.Events))
	}
	ev := rep.Events[0]
	if !ev.Complete || ev.Dirty != 0 {
		t.Errorf("unused-link event: complete=%v dirty=%d (%s)", ev.Complete, ev.Dirty, ev.Why)
	}
	if ev.Stage["fib_swap"].Count != 0 {
		t.Errorf("unused-link failure swapped a FIB generation")
	}
}

// A partitioning failure withdraws routes; recovery restores them. Both
// events must be complete — withdrawal is a data-plane change (the entry
// is deleted, not left stale), so both directions swap generations.
func TestConvergenceTracingPartitionAndRecovery(t *testing.T) {
	g, err := topo.NewBuilder(3).AddPC(0, 1).AddPC(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	flows := []traffic.Flow{{ID: 0, Src: 2, Dst: 0, SizeBits: 100 * mb, Arrival: 0}}
	rep := runTraced(t, g, flows, Config{
		Policy:             PolicyBGP,
		Failures:           []LinkFailure{{A: 1, B: 0, At: 0.1, RecoverAt: 1.0}},
		ReconvergenceDelay: 0.5,
	})
	if len(rep.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(rep.Events))
	}
	for _, ev := range rep.Events {
		if !ev.Complete {
			t.Errorf("%s incomplete: %s", ev.Root.Name, ev.Why)
		}
		if ev.Stage["fib_swap"].Count == 0 {
			t.Errorf("%s: no generation swap; withdrawal must change the data plane", ev.Root.Name)
		}
	}
}

// With no tracer attached the failure path must not build the mirror
// deployment or emit anything.
func TestNoTracerNoMirror(t *testing.T) {
	g := failGraph(t)
	s := &Sim{g: g, cfg: Config{Policy: PolicyBGP}.withDefaults()}
	s.buildLinks()
	s.tab = bgp.NewTable(g, []int{0}, 0)
	s.handleFail(LinkFailure{A: 3, B: 1})
	if s.mirror != nil {
		t.Fatal("mirror deployment built without a tracer")
	}
}
