package bgpsim

import (
	"bytes"
	"testing"

	"repro/internal/obs/span"
	"repro/internal/topo"
)

// A fail/restore cycle with a tracer attached must emit one finalized
// root span per session event, carrying the endpoints and a non-negative
// virtual reconvergence latency, and the analyzer must judge both
// complete.
func TestSessionEventsTraced(t *testing.T) {
	// Chain 2 -> 1 -> 0: failing 1-0 withdraws the prefix from the whole
	// chain, so reconvergence needs message propagation and the traced
	// latency is strictly positive (unlike a local failover, which is 0).
	g, err := topo.NewBuilder(3).AddPC(0, 1).AddPC(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := span.New(span.Options{Writer: &buf})

	s := New(g, 0)
	s.SetTracer(tr)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.FailLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	failConverged := s.LastChange
	if err := s.RestoreLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := span.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := span.Analyze(recs)
	if len(rep.Events) != 2 {
		t.Fatalf("events = %d, want 2 (down + up)", len(rep.Events))
	}
	down, up := rep.Events[0], rep.Events[1]
	if down.Root.Name != span.RootSessionDown || up.Root.Name != span.RootSessionUp {
		t.Fatalf("root names = %q, %q", down.Root.Name, up.Root.Name)
	}
	for _, ev := range rep.Events {
		if !ev.Complete {
			t.Errorf("%s incomplete: %s", ev.Root.Name, ev.Why)
		}
		if ev.Root.A != 1 || ev.Root.B != 0 {
			t.Errorf("%s endpoints = (%d, %d), want (1, 0)", ev.Root.Name, ev.Root.A, ev.Root.B)
		}
		if ev.Root.V < 0 {
			t.Errorf("%s latency = %v, want >= 0", ev.Root.Name, ev.Root.V)
		}
	}
	// The failure cut AS 1's customer route; reconvergence took real
	// virtual time, which the root's V must reflect.
	if failConverged <= 0 || down.Root.V <= 0 {
		t.Errorf("down event latency = %v (LastChange %v), want > 0", down.Root.V, failConverged)
	}
}

// An untraced sim must carry zero tracing state through fail/restore.
func TestNoTracerNoRoots(t *testing.T) {
	g := fig2a(t)
	s := New(g, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.FailLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.open) != 0 {
		t.Fatalf("open roots = %d without a tracer", len(s.open))
	}
}
