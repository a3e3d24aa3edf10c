package audit

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/leakcheck"
	"repro/internal/topo"
)

func forwardHop(router int32, as int32, kind dataplane.PortKind, rel topo.Rel, tag bool) dataplane.HopInfo {
	return dataplane.HopInfo{
		Router:  dataplane.RouterID(router),
		AS:      as,
		Out:     0,
		OutKind: kind,
		OutRel:  rel,
		Tag:     tag,
		Verdict: dataplane.VerdictForward,
	}
}

func TestRecorderPacketJourney(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(Options{Writer: &buf})
	defer rec.Close()
	hook := rec.RouterHook()

	p := &dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 3, DstPort: 4, Proto: 6},
		ID:   7,
		Dst:  3,
	}
	// AS 1 exports up, AS 2 deflects onto a peer, AS 3 delivers.
	p.Tag = true
	hook(p, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
	h := forwardHop(1, 2, dataplane.EBGP, topo.Peer, true)
	h.Deflected = true
	hook(p, h)
	hook(p, dataplane.HopInfo{Router: 2, AS: 3, Out: -1, Verdict: dataplane.VerdictDeliver})

	st := rec.Stats()
	if st.Records != 1 || st.Delivered != 1 || st.Steps != 3 || st.Deflections != 1 {
		t.Fatalf("stats = %+v, want 1 delivered record, 3 steps, 1 deflection", st)
	}
	if st.Violations != 0 {
		t.Fatalf("clean journey produced violations: %+v", st)
	}

	// The JSONL stream must round-trip through the reader. Flush is the
	// barrier after which every ended journey is on the writer.
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := ReadRecords(&buf, func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("read %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != KindPacket || r.Verdict != VerdictDelivered || r.PktID != 7 || r.Dst != 3 {
		t.Fatalf("record = %+v", r)
	}
	if len(r.Steps) != 3 || !r.Steps[1].Deflected || r.Deflections != 1 {
		t.Fatalf("steps = %+v", r.Steps)
	}
	if r.ASPathLen() != 3 {
		t.Fatalf("ASPathLen = %d, want 3", r.ASPathLen())
	}
}

func TestRecorderDetectsLoopAndCountsPerInvariant(t *testing.T) {
	rec := NewRecorder(Options{})
	defer rec.Close()
	hook := rec.RouterHook()

	p := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 9}, Dst: 9}
	hook(p, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
	hook(p, forwardHop(1, 2, dataplane.EBGP, topo.Customer, true))
	hook(p, forwardHop(2, 1, dataplane.EBGP, topo.Customer, false)) // back to AS 1
	hook(p, dataplane.HopInfo{Router: 3, AS: 4, Out: -1, Verdict: dataplane.VerdictDeliver})

	st := rec.Stats()
	var want [numInvariants]uint64
	want[InvLoopFree] = 1
	if st.Violations != 1 || st.ByInvariant != want {
		t.Fatalf("stats = %+v, want one violation, counted as loop-free", st)
	}
	bad := rec.ViolatingRecords()
	if len(bad) != 1 || len(bad[0].Violations) == 0 {
		t.Fatalf("violating record not retained: %+v", bad)
	}
}

func TestRecorderTagDropJourney(t *testing.T) {
	rec := NewRecorder(Options{})
	defer rec.Close()
	hook := rec.RouterHook()

	p := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 5}, Dst: 5}
	hook(p, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
	// AS 2 entered from a provider (tag clear) and refuses a peer egress:
	// a justified tag-drop.
	hook(p, dataplane.HopInfo{
		Router: 1, AS: 2, Out: -1,
		Verdict: dataplane.VerdictDrop, Reason: dataplane.DropValleyFree,
		AltTried: true, AltRel: topo.Peer,
	})

	st := rec.Stats()
	if st.Records != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want one dropped record", st)
	}
	if st.Violations != 0 {
		t.Fatalf("justified tag-drop flagged: %+v", rec.ViolatingRecords())
	}
}

func TestRecorderLostAndClose(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(Options{Writer: &buf})
	hook := rec.RouterHook()

	lost := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 1}, ID: 1, Dst: 1}
	hook(lost, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
	rec.Lost(lost, "queue-overflow")

	dangling := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 1}, ID: 2, Dst: 1}
	hook(dangling, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	st := rec.Stats()
	if st.Lost != 2 || st.Records != 2 {
		t.Fatalf("stats = %+v, want 2 lost records", st)
	}
	out := buf.String()
	if !strings.Contains(out, "queue-overflow") || !strings.Contains(out, "recorder close") {
		t.Fatalf("loss reasons missing from JSONL:\n%s", out)
	}
	// Lost on an unknown packet must be a no-op.
	rec.Lost(&dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 99}, Dst: 99}, "x")
	if rec.Stats().Records != 2 {
		t.Fatal("Lost on unknown packet created a record")
	}
}

func TestRecorderSampling(t *testing.T) {
	rec := NewRecorder(Options{Sample: 0.25})
	defer rec.Close()
	kept := 0
	const flows = 4096
	for i := 0; i < flows; i++ {
		if rec.Sampled(mix64(uint64(i))) {
			kept++
		}
	}
	frac := float64(kept) / flows
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("sampled %.3f of flows, want ~0.25", frac)
	}

	// Sampling is per flow: every packet of a kept flow is captured, and
	// unsampled flows never reach the inflight map.
	all := NewRecorder(Options{Sample: 1})
	defer all.Close()
	if !all.Sampled(0) || !all.Sampled(^uint32(0)) {
		t.Fatal("Sample=1 must record everything")
	}
	none := NewRecorder(Options{Sample: 0.0000001})
	defer none.Close()
	hook := none.RouterHook()
	for i := 0; i < 64; i++ {
		p := &dataplane.Packet{Flow: dataplane.FlowKey{SrcAddr: uint32(i), DstAddr: 1}, Dst: 1}
		hook(p, dataplane.HopInfo{Router: 0, AS: 1, Out: -1, Verdict: dataplane.VerdictDeliver})
	}
	if st := none.Stats(); st.Records > 4 {
		t.Fatalf("tiny sample rate recorded %d of 64 flows", st.Records)
	}
}

func TestRecordPathAndPathSteps(t *testing.T) {
	// 0 <- 1 -> is provider chain: 2 is provider of 1, 1 provider of 0;
	// peering 2 -- 3; 3 provider of 4.
	g, err := topo.NewBuilder(5).
		AddPC(1, 0).AddPC(2, 1).AddPeer(2, 3).AddPC(3, 4).
		Build()
	if err != nil {
		t.Fatal(err)
	}

	steps := PathSteps(g, []int{0, 1, 2, 3, 4}, 2)
	wantEdge := []EdgeClass{EdgeUp, EdgeUp, EdgeAcross, EdgeDown, EdgeNone}
	// Tag set at the origin and wherever the path enters from a customer;
	// AS 3 enters from a peer and AS 4 from a provider, so theirs are clear.
	wantTag := []bool{true, true, true, false, false}
	for i, s := range steps {
		if s.Edge != wantEdge[i] {
			t.Fatalf("step %d edge = %v, want %v (steps %+v)", i, s.Edge, wantEdge[i], steps)
		}
		if s.Tag != wantTag[i] {
			t.Fatalf("step %d tag = %v, want %v: %+v", i, s.Tag, wantTag[i], s)
		}
		if s.Deflected != (i == 2) {
			t.Fatalf("step %d deflected = %v", i, s.Deflected)
		}
	}

	var buf bytes.Buffer
	rec := NewRecorder(Options{Writer: &buf})
	defer rec.Close()
	rec.RecordPath(PathRecord{Flow: 42, Dst: 4, BaselineLen: 4, Steps: steps})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Paths != 1 || st.Deflections != 1 || st.Violations != 0 {
		t.Fatalf("stats = %+v", st)
	}

	var recs []Record
	if err := ReadRecords(&buf, func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != KindPath || recs[0].Verdict != VerdictPath {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].BaselineLen != 4 || recs[0].ASPathLen() != 5 {
		t.Fatalf("baseline/len = %d/%d", recs[0].BaselineLen, recs[0].ASPathLen())
	}
}

// TestRecordPathLongerThanSegment: a path with more steps than a ring
// segment holds can never be buffered. That is not congestion: the whole
// path is shed and counted at once, with no backpressure event, and the
// recorder goes on recording what does fit.
func TestRecordPathLongerThanSegment(t *testing.T) {
	rec := NewRecorder(Options{segments: 1, SegmentCap: 4})
	defer rec.Close()
	step := func(as int32) Step { return Step{Router: -1, AS: as, Edge: EdgeDown} }
	long := PathRecord{Flow: 1, Dst: 9, BaselineLen: 5}
	for as := int32(0); as < 6; as++ {
		long.Steps = append(long.Steps, step(as))
	}
	rec.RecordPath(long)
	rec.RecordPath(PathRecord{Flow: 2, Dst: 9, BaselineLen: 1, Steps: []Step{step(0), step(1)}})
	st := rec.Stats()
	if st.RingDropped != 6 || st.Backpressure != 0 {
		t.Fatalf("stats = %+v, want 6 records dropped and no backpressure", st)
	}
	if st.Paths != 1 || st.Steps != 2 {
		t.Fatalf("stats = %+v, want the short path recorded", st)
	}
}

// failWriter fails every write after the first `after`.
type failWriter struct {
	after  int
	writes int
}

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.after {
		return 0, errSinkDown
	}
	return len(p), nil
}

var errSinkDown = &sinkDownError{}

type sinkDownError struct{}

func (*sinkDownError) Error() string { return "sink down" }

// TestRecorderCloseReturnsSinkError: Close must drain, write what it
// drained, and surface the first sink error instead of swallowing it.
func TestRecorderCloseReturnsSinkError(t *testing.T) {
	w := &failWriter{after: 0}
	rec := NewRecorder(Options{Writer: w})
	hook := rec.RouterHook()
	p := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 3}, Dst: 3}
	hook(p, dataplane.HopInfo{Router: 0, AS: 3, Out: -1, Verdict: dataplane.VerdictDeliver})
	if err := rec.Close(); err != errSinkDown {
		t.Fatalf("Close = %v, want the sink error", err)
	}
	// The error stays visible on later calls.
	if err := rec.Close(); err != errSinkDown {
		t.Fatalf("second Close = %v, want the retained sink error", err)
	}
	if err := rec.Flush(); err != errSinkDown {
		t.Fatalf("Flush after Close = %v, want the retained sink error", err)
	}
}

// TestRecorderCloseWritesFinalJourneys: a journey pushed moments before
// Close must be drained from the rings and written, and one still in
// flight must be written as lost — the Close ordering contract.
func TestRecorderCloseWritesFinalJourneys(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(Options{Writer: &buf})
	hook := rec.RouterHook()
	p := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 3}, Dst: 3}
	hook(p, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
	hook(p, dataplane.HopInfo{Router: 1, AS: 3, Out: -1, Verdict: dataplane.VerdictDeliver})
	// Leave a second journey dangling so Close also finalizes it as lost.
	q := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 3}, ID: 9, Dst: 3}
	hook(q, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]int{}
	if err := ReadRecords(&buf, func(r Record) error { verdicts[r.Verdict]++; return nil }); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Records != 2 || verdicts[VerdictDelivered] != 1 || verdicts[VerdictLost] != 1 {
		t.Fatalf("log verdicts %v, stats %+v; want 1 delivered + 1 lost on the writer and in Stats", verdicts, st)
	}
}

// TestRecorderLostUnsampledFlow: Lost on a flow the sampler rejected
// must be a pure branch-and-return — no record, no stats movement.
func TestRecorderLostUnsampledFlow(t *testing.T) {
	rec := NewRecorder(Options{Sample: 0.000001})
	var p dataplane.Packet
	for i := uint32(0); ; i++ {
		p = dataplane.Packet{Flow: dataplane.FlowKey{SrcAddr: i, DstAddr: 9}, Dst: 9}
		if !rec.Sampled(p.Flow.Hash()) {
			break
		}
	}
	rec.Lost(&p, "queue-overflow")
	if st := rec.Stats(); st.Records != 0 || st.Lost != 0 || st.Steps != 0 {
		t.Fatalf("Lost on unsampled flow moved stats: %+v", st)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderWritesViolationAtClose: a violating journey must be retained for
// ViolatingRecords and be on the writer, violations included, after Close.
func TestRecorderWritesViolationAtClose(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(Options{Writer: &buf})
	hook := rec.RouterHook()
	p := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 9}, Dst: 9}
	hook(p, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
	hook(p, forwardHop(1, 2, dataplane.EBGP, topo.Customer, true))
	hook(p, forwardHop(2, 1, dataplane.EBGP, topo.Customer, false)) // loop back into AS 1
	hook(p, dataplane.HopInfo{Router: 3, AS: 4, Out: -1, Verdict: dataplane.VerdictDeliver})

	bad := rec.ViolatingRecords()
	if len(bad) != 1 || len(bad[0].Violations) == 0 {
		t.Fatalf("violating record not retained: %+v", bad)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	found := false
	if err := ReadRecords(&buf, func(r Record) error {
		if len(r.Violations) > 0 {
			found = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("violations did not reach the writer")
	}
}

// TestRecorderHotPathZeroAlloc is the benchmark assertion behind the
// disabled-path satellite: both the unsampled branch and the steady-state
// sampled push must not allocate. Each is measured as the total over
// many calls, so an amortized allocation (a slice that grows now and
// then) does not round to zero per call.
func TestRecorderHotPathZeroAlloc(t *testing.T) {
	total := func(n int, f func()) float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				f()
			}
		})
	}
	// Unsampled: one hash, one compare, return.
	cold := NewRecorder(Options{Sample: 0.000001})
	hook := cold.RouterHook()
	var p dataplane.Packet
	for i := uint32(0); ; i++ {
		p = dataplane.Packet{Flow: dataplane.FlowKey{SrcAddr: i, DstAddr: 9}, Dst: 9}
		if !cold.Sampled(p.Flow.Hash()) {
			break
		}
	}
	h := forwardHop(0, 1, dataplane.EBGP, topo.Provider, true)
	if n := total(1000, func() { hook(&p, h) }); n != 0 {
		t.Fatalf("unsampled hook allocates %v times in 1000 calls, want 0", n)
	}
	cold.Lost(&p, "queue-overflow")
	if n := total(1000, func() { cold.Lost(&p, "queue-overflow") }); n != 0 {
		t.Fatalf("unsampled Lost allocates %v times in 1000 calls, want 0", n)
	}

	cold.Close()

	// Sampled, no sink: the full record path, and the drain goroutine
	// assembling, checking and recycling each journey. Go's allocation
	// accounting is process-global, so the count covers both, provided
	// the drain goroutine does its work inside the count: each counted run
	// waits until it has finalized every journey pushed.
	//
	// Every journey here has the same key, so a shed deliver hop would
	// merge two journeys into one of three steps, and the drain goroutine
	// would grow the pooled step slice: on a busy host a starved drain
	// goroutine let a 2,048-record segment fill and shed, and the count
	// read 1. The segment therefore holds everything pushed between two
	// drains: a warm-up of 2,048 journeys, or AllocsPerRun's uncounted
	// call plus the counted one, 2 × 2,000 journeys.
	hot := NewRecorder(Options{SegmentCap: 1 << 13})
	defer hot.Close()
	hhook := hot.RouterHook()
	q := dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 3}, Dst: 3}
	deliver := dataplane.HopInfo{Router: 1, AS: 3, Out: -1, Verdict: dataplane.VerdictDeliver}
	journey := func() {
		hhook(&q, h)
		hhook(&q, deliver)
	}
	for i := 0; i < 2048; i++ {
		journey()
	}
	want := hot.Stats().Records // drain barrier: warm-up fully processed
	// The barrier's reply woke the drain goroutine; its next park may
	// allocate the runtime's wait records (sudogs), so count from there.
	for !leakcheck.Parked("select", "ring.(*Drainer[...]).run") {
		runtime.Gosched()
	}
	const n = 2000
	if got := total(1, func() {
		for i := 0; i < n; i++ {
			journey()
		}
		want += n
		for done := false; !done; runtime.Gosched() {
			hot.mu.Lock()
			done = hot.stats.Records >= want
			hot.mu.Unlock()
		}
	}); got != 0 {
		t.Fatalf("sampled record path allocates %v times in %d journeys, want 0", got, n)
	}
	if st := hot.Stats(); st.RingDropped != 0 || st.Records != want || st.Steps != 2*want {
		t.Fatalf("stats = %+v, want %d two-step journeys and nothing shed", st, want)
	}
}

func TestRecorderJourneyRecycling(t *testing.T) {
	rec := NewRecorder(Options{})
	defer rec.Close()
	hook := rec.RouterHook()
	for i := 0; i < 100; i++ {
		p := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 1}, ID: uint16(i), Dst: 1}
		hook(p, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
		hook(p, dataplane.HopInfo{Router: 1, AS: 2, Out: -1, Verdict: dataplane.VerdictDeliver})
	}
	st := rec.Stats()
	if st.Records != 100 || st.Delivered != 100 || st.Steps != 200 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Violations != 0 {
		t.Fatal("recycled journeys leaked checker state")
	}
}
