package span

import (
	"fmt"
	"sort"
	"time"
)

// Offline analysis of a span log: reassemble causal trees, find the
// failure-event roots, and reduce each to the question the tracing
// layer exists to answer — how long from the failure event until the
// data plane is consistent again, and where inside the pipeline that
// time went. `mifo-inspect spans` is a thin shell over this.

// Root span names that mark failure events. conv_* roots come from the
// fluid simulator's failure injection and span the full pipeline down
// to the generation swap; bgp_* roots come from the message-level
// simulator, where convergence is virtual time and there is no data
// plane below (Complete is judged accordingly).
const (
	RootLinkDown    = "conv_link_down"
	RootLinkUp      = "conv_link_up"
	RootSessionDown = "bgp_session_down"
	RootSessionUp   = "bgp_session_up"
)

// Pipeline stage names, in causal order. StageOrder doubles as the
// analyzer's closed vocabulary for per-stage breakdowns (names outside
// it aggregate under "other").
var StageOrder = []string{
	"route_recompute",
	"dest_recompute",
	"daemon_epoch",
	"fib_commit",
	"fib_swap",
}

// StageAgg accumulates one stage's spans within a trace or across a log.
type StageAgg struct {
	Count int
	Total time.Duration
	Max   time.Duration
}

func (a *StageAgg) add(d time.Duration) {
	a.Count++
	a.Total += d
	if d > a.Max {
		a.Max = d
	}
}

// Mean returns the average span duration of the stage (0 when empty).
func (a StageAgg) Mean() time.Duration {
	if a.Count == 0 {
		return 0
	}
	return a.Total / time.Duration(a.Count)
}

// Event is one analyzed failure event: a root span plus the reduction
// of its causal tree.
type Event struct {
	// Root is the failure event's root span record.
	Root Record
	// Spans counts every record of the trace, root included.
	Spans int
	// Dirty is the number of destinations the event's route recomputes
	// marked dirty (summed over route_recompute children).
	Dirty int
	// Convergence is the root span's duration: wall time from failure
	// injection to data-plane consistency for conv_* roots, wall time of
	// the session event for bgp_* roots (whose virtual reconvergence
	// time is Root.V seconds).
	Convergence time.Duration
	// Stage breaks the trace down by pipeline stage.
	Stage map[string]StageAgg
	// Complete reports the event reached data-plane consistency: for
	// conv_* roots the trace contains a route recompute, and — whenever
	// the recompute dirtied any destination — a daemon epoch, a FIB
	// commit, and a generation swap. Incomplete events carry Why.
	Complete bool
	Why      string
}

// Report is the analysis of one span log.
type Report struct {
	// Events are the analyzed failure events, in log order.
	Events []Event
	// Stage aggregates every event's stages across the log.
	Stage map[string]StageAgg
	// Records is the total span count; OrphanTraces counts traces that
	// have spans but no root record (a root shed by a full ring, or a
	// failure event still in flight when the log was cut — either way
	// the event cannot be proven consistent).
	Records      int
	OrphanTraces int
}

// CompleteEvents counts events that reached data-plane consistency.
func (r *Report) CompleteEvents() int {
	n := 0
	for i := range r.Events {
		if r.Events[i].Complete {
			n++
		}
	}
	return n
}

// ConvergenceSeconds returns each complete event's convergence time in
// seconds, in log order — the CDF input.
func (r *Report) ConvergenceSeconds() []float64 {
	out := make([]float64, 0, len(r.Events))
	for i := range r.Events {
		if r.Events[i].Complete {
			out = append(out, r.Events[i].Convergence.Seconds())
		}
	}
	return out
}

// isRootName reports whether name is a failure-event root.
func isRootName(name string) bool {
	switch name {
	case RootLinkDown, RootLinkUp, RootSessionDown, RootSessionUp:
		return true
	}
	return false
}

// stageKey folds unknown span names into "other" so the breakdown
// tables stay closed over StageOrder.
func stageKey(name string) string {
	for _, s := range StageOrder {
		if name == s {
			return s
		}
	}
	return "other"
}

// Analyze reduces a span log to its failure events. Records may be in
// any order (ring drains interleave traces).
func Analyze(recs []Record) *Report {
	rep := &Report{Records: len(recs), Stage: make(map[string]StageAgg)}

	// Group records by trace, remembering each trace's root.
	byTrace := make(map[uint64][]*Record)
	roots := make(map[uint64]*Record)
	var rootOrder []uint64
	for i := range recs {
		rec := &recs[i]
		byTrace[rec.Trace] = append(byTrace[rec.Trace], rec)
		if rec.Parent == 0 && isRootName(rec.Name) {
			if _, dup := roots[rec.Trace]; !dup {
				roots[rec.Trace] = rec
				rootOrder = append(rootOrder, rec.Trace)
			}
		}
	}
	sort.Slice(rootOrder, func(i, j int) bool {
		a, b := roots[rootOrder[i]], roots[rootOrder[j]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	for tr := range byTrace {
		if _, ok := roots[tr]; !ok {
			rep.OrphanTraces++
		}
	}

	for _, tr := range rootOrder {
		root := roots[tr]
		ev := Event{
			Root:        *root,
			Spans:       len(byTrace[tr]),
			Convergence: root.Duration(),
			Stage:       make(map[string]StageAgg),
		}
		for _, rec := range byTrace[tr] {
			if rec == root {
				continue
			}
			k := stageKey(rec.Name)
			a := ev.Stage[k]
			a.add(rec.Duration())
			ev.Stage[k] = a
			g := rep.Stage[k]
			g.add(rec.Duration())
			rep.Stage[k] = g
			if rec.Name == "route_recompute" {
				ev.Dirty += int(rec.V)
			}
		}
		ev.Complete, ev.Why = judge(&ev)
		rep.Events = append(rep.Events, ev)
	}
	return rep
}

// judge decides whether one event's trace proves data-plane
// consistency.
func judge(ev *Event) (bool, string) {
	switch ev.Root.Name {
	case RootSessionDown, RootSessionUp:
		// The message-level simulator converges when its update queue
		// drains; the root span is only finalized at that point, so its
		// existence is the proof. Negative V would mean the sim never
		// reconverged after this event.
		if ev.Root.V < 0 {
			return false, "session event without reconvergence"
		}
		return true, ""
	}
	if ev.Stage["route_recompute"].Count == 0 {
		return false, "no route recompute in trace"
	}
	if ev.Dirty == 0 {
		// The failure touched no installed route; the data plane was
		// never inconsistent.
		return true, ""
	}
	for _, stage := range []string{"daemon_epoch", "fib_commit", "fib_swap"} {
		if ev.Stage[stage].Count == 0 {
			return false, fmt.Sprintf("%d dirty destinations but no %s span", ev.Dirty, stage)
		}
	}
	return true, ""
}
