package span

import (
	"testing"
	"time"
)

// mkTrace builds one failure-event trace: a root named rootName with
// the given child spans, using small deterministic timestamps. next is
// the ID allocator shared across traces in one synthetic log.
type traceBuilder struct {
	next uint64
	recs []Record
}

func (b *traceBuilder) root(name string, start, end int64) Record {
	b.next++
	r := Record{Trace: b.next, ID: b.next, Name: name, Start: start, End: end, Node: -1}
	b.recs = append(b.recs, r)
	return r
}

func (b *traceBuilder) child(parent Record, name string, start, end int64, v float64) Record {
	b.next++
	r := Record{
		Trace: parent.Trace, ID: b.next, Parent: parent.ID,
		Name: name, Start: start, End: end, V: v,
	}
	b.recs = append(b.recs, r)
	return r
}

func TestAnalyzeCompleteEvent(t *testing.T) {
	var b traceBuilder
	root := b.root(RootLinkDown, 0, 1000)
	rc := b.child(root, "route_recompute", 10, 400, 3)
	b.child(rc, "dest_recompute", 20, 120, 0)
	b.child(rc, "dest_recompute", 130, 250, 0)
	ep := b.child(root, "daemon_epoch", 410, 900, 0)
	fc := b.child(ep, "fib_commit", 420, 880, 0)
	b.child(fc, "fib_swap", 860, 870, 0)

	rep := Analyze(b.recs)
	if len(rep.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(rep.Events))
	}
	ev := rep.Events[0]
	if !ev.Complete {
		t.Fatalf("event incomplete: %s", ev.Why)
	}
	if ev.Dirty != 3 {
		t.Errorf("dirty = %d, want 3", ev.Dirty)
	}
	if ev.Spans != 7 {
		t.Errorf("spans = %d, want 7", ev.Spans)
	}
	if ev.Convergence != 1000 {
		t.Errorf("convergence = %d, want 1000", ev.Convergence)
	}
	if got := ev.Stage["dest_recompute"]; got.Count != 2 || got.Total != 220 || got.Max != 120 {
		t.Errorf("dest_recompute agg = %+v", got)
	}
	if got := ev.Stage["dest_recompute"].Mean(); got != 110 {
		t.Errorf("dest_recompute mean = %d, want 110", got)
	}
	if got := rep.Stage["fib_swap"]; got.Count != 1 || got.Total != 10*time.Nanosecond {
		t.Errorf("log-wide fib_swap agg = %+v", got)
	}
	if rep.OrphanTraces != 0 {
		t.Errorf("orphan traces = %d, want 0", rep.OrphanTraces)
	}
	if got := rep.ConvergenceSeconds(); len(got) != 1 || got[0] != 1000e-9 {
		t.Errorf("ConvergenceSeconds = %v", got)
	}
}

func TestAnalyzeJudgesIncompleteness(t *testing.T) {
	var b traceBuilder

	// Event 1: dirty destinations but the trace stops at the recompute —
	// the data plane was never proven consistent.
	r1 := b.root(RootLinkDown, 0, 100)
	b.child(r1, "route_recompute", 1, 50, 5)

	// Event 2: recompute found nothing dirty — trivially consistent.
	r2 := b.root(RootLinkUp, 200, 260)
	b.child(r2, "route_recompute", 210, 250, 0)

	// Event 3: no recompute at all.
	b.root(RootLinkDown, 300, 310)

	// An orphan trace: spans whose root never ended.
	b.recs = append(b.recs, Record{Trace: 9999, ID: 10000, Parent: 9999, Name: "daemon_epoch", Start: 1, End: 2})

	rep := Analyze(b.recs)
	if len(rep.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(rep.Events))
	}
	if rep.Events[0].Complete {
		t.Error("event with dirty dests and no epoch/commit/swap judged complete")
	}
	if !rep.Events[1].Complete {
		t.Errorf("zero-dirty event judged incomplete: %s", rep.Events[1].Why)
	}
	if rep.Events[2].Complete {
		t.Error("event with no recompute judged complete")
	}
	if got := rep.CompleteEvents(); got != 1 {
		t.Errorf("CompleteEvents = %d, want 1", got)
	}
	if rep.OrphanTraces != 1 {
		t.Errorf("orphan traces = %d, want 1", rep.OrphanTraces)
	}
}

func TestAnalyzeOrdersEventsByStart(t *testing.T) {
	var b traceBuilder
	late := b.root(RootLinkUp, 500, 600)
	early := b.root(RootLinkDown, 100, 400)
	rep := Analyze(b.recs)
	if len(rep.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(rep.Events))
	}
	if rep.Events[0].Root.ID != early.ID || rep.Events[1].Root.ID != late.ID {
		t.Errorf("events not in start order: %d then %d", rep.Events[0].Root.ID, rep.Events[1].Root.ID)
	}
}

func TestAnalyzeFoldsUnknownStages(t *testing.T) {
	var b traceBuilder
	r := b.root(RootLinkUp, 0, 100)
	b.child(r, "mystery_stage", 10, 20, 0)
	rep := Analyze(b.recs)
	if got := rep.Stage["other"]; got.Count != 1 {
		t.Errorf("unknown stage not folded into other: %+v", rep.Stage)
	}
}
