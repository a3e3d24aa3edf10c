package audit

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataplane"
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

	// The JSONL stream must round-trip through the reader. A journey is on
	// the writer when the hop that ends it returns.
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

// TestRecordPathLongPathWhole: a long path is recorded whole, every
// step counted, next to a short one.
func TestRecordPathLongPathWhole(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(Options{Writer: &buf})
	defer rec.Close()
	step := func(as int32) Step { return Step{Router: -1, AS: as, Edge: EdgeDown} }
	long := PathRecord{Flow: 1, Dst: 9, BaselineLen: 5}
	for as := int32(0); as < 10_000; as++ {
		long.Steps = append(long.Steps, step(as))
	}
	rec.RecordPath(long)
	rec.RecordPath(PathRecord{Flow: 2, Dst: 9, BaselineLen: 1, Steps: []Step{step(0), step(1)}})
	if st := rec.Stats(); st.Paths != 2 || st.Records != 2 || st.Steps != 10_002 || st.Violations != 0 {
		t.Fatalf("stats = %+v, want 2 paths of 10,002 steps in all and no violation", st)
	}
	var lens []int
	if err := ReadRecords(&buf, func(r Record) error { lens = append(lens, len(r.Steps)); return nil }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lens, []int{10_000, 2}) {
		t.Fatalf("logged paths of %v steps, want [10000 2]", lens)
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

// TestRecorderCloseReturnsSinkError: Close must surface the first sink
// error instead of swallowing it.
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

// TestRecorderCloseWritesFinalJourneys: a journey ended moments before
// Close is written, and one still in flight is written as lost — the
// Close ordering contract.
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

	// Sampled, no sink: the full record path — the journey map, the
	// checker, finalizing and recycling — runs on this goroutine, so the
	// count covers all of it. A warm-up fills the pool and the map.
	hot := NewRecorder(Options{})
	defer hot.Close()
	hhook := hot.RouterHook()
	q := dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 3}, Dst: 3}
	deliver := dataplane.HopInfo{Router: 1, AS: 3, Out: -1, Verdict: dataplane.VerdictDeliver}
	journey := func() {
		hhook(&q, h)
		hhook(&q, deliver)
	}
	for i := 0; i < 100; i++ {
		journey()
	}
	const n = 2000
	if got := total(n, journey); got != 0 {
		t.Fatalf("sampled record path allocates %v times in %d journeys, want 0", got, n)
	}
	// AllocsPerRun makes one uncounted run before the counted one.
	const want = 100 + 2*n
	if st := hot.Stats(); st.Records != want || st.Steps != 2*want || st.Violations != 0 {
		t.Fatalf("stats = %+v, want %d clean two-step journeys", st, want)
	}
}

// TestRecorderSinkZeroAlloc: with a JSONL sink the record path also
// encodes every journey, and that must not allocate either — in particular
// MarshalText hands out each edge class's and invariant's name without
// converting it per step. Counted as in TestRecorderHotPathZeroAlloc,
// except under -race (raceDetector), where the JSON encoder's pool drops
// entries by design.
func TestRecorderSinkZeroAlloc(t *testing.T) {
	rec := NewRecorder(Options{Writer: io.Discard})
	defer rec.Close()
	hook := rec.RouterHook()
	q := dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 3}, Dst: 3}
	up := forwardHop(0, 1, dataplane.EBGP, topo.Provider, true)
	deliver := dataplane.HopInfo{Router: 1, AS: 3, Out: -1, Verdict: dataplane.VerdictDeliver}
	journey := func() {
		hook(&q, up)
		hook(&q, deliver)
	}
	for i := 0; i < 100; i++ {
		journey()
	}
	const n = 2000
	if got := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			journey()
		}
	}); got != 0 && !raceDetector {
		t.Fatalf("recording to a sink allocates %v times in %d journeys, want 0", got, n)
	}
	for _, v := range append(Invariants[:], -1) {
		if b, _ := v.MarshalText(); string(b) != v.String() {
			t.Errorf("Invariant(%d).MarshalText() = %q, want %q", v, b, v)
		}
		if b := testing.AllocsPerRun(10, func() { v.MarshalText() }); v >= 0 && b != 0 {
			t.Errorf("Invariant(%d).MarshalText allocates %v times, want 0", v, b)
		}
	}
	for e := EdgeNone; e <= EdgeInternal+1; e++ {
		if b, _ := e.MarshalText(); string(b) != e.String() {
			t.Errorf("EdgeClass(%d).MarshalText() = %q, want %q", e, b, e)
		}
	}
	if st := rec.Stats(); st.Violations != 0 || st.Records != 100+2*n {
		t.Fatalf("stats = %+v, want %d clean journeys", st, 100+2*n)
	}
}

// TestConcurrentJourneysAllRecorded: hooks on several goroutines, each
// reusing one flow key and wrapping its packet IDs as netd's senders do,
// must record every journey whole. A journey that lost its deliver hop
// would take the next journey's hops of the same key; over more ASes
// that reads as a loop that never happened.
func TestConcurrentJourneysAllRecorded(t *testing.T) {
	const goroutines, journeys = 4, 5000
	rec := NewRecorder(Options{})
	defer rec.Close()
	hook := rec.RouterHook()
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := dataplane.Packet{Flow: dataplane.FlowKey{SrcAddr: uint32(g + 1), DstAddr: 3}, Dst: 3}
			up := forwardHop(int32(2*g), 1, dataplane.EBGP, topo.Provider, true)
			deliver := dataplane.HopInfo{Router: dataplane.RouterID(2*g + 1), AS: 3, Out: -1, Verdict: dataplane.VerdictDeliver}
			for i := range journeys {
				p.ID = uint16(i % 1024)
				hook(&p, up)
				hook(&p, deliver)
			}
		}()
	}
	wg.Wait()
	st := rec.Stats()
	if st.Records != goroutines*journeys || st.Delivered != goroutines*journeys ||
		st.Steps != 2*goroutines*journeys || st.Violations != 0 {
		t.Fatalf("stats = %+v, want %d delivered two-step journeys and no violation",
			st, goroutines*journeys)
	}
}

// TestRecorderCloseOrderAndAfter: Close finalizes the journeys in flight
// in the order they started, so a run writes the same bytes every time,
// and hooks called after Close record nothing.
func TestRecorderCloseOrderAndAfter(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(Options{Writer: &buf})
	hook := rec.RouterHook()
	up := forwardHop(0, 1, dataplane.EBGP, topo.Provider, true)
	ids := []uint16{40, 7, 300, 2, 99, 1}
	for _, id := range ids {
		hook(&dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 3}, ID: id, Dst: 3}, up)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	after := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 3}, ID: 5, Dst: 3}
	hook(after, up)
	hook(after, dataplane.HopInfo{Router: 1, AS: 3, Out: -1, Verdict: dataplane.VerdictDeliver})
	rec.RecordPath(PathRecord{Flow: 1, Dst: 3, Steps: []Step{{Router: -1, AS: 3}}})
	if st := rec.Stats(); st.Records != uint64(len(ids)) || st.Lost != uint64(len(ids)) {
		t.Fatalf("stats = %+v, want %d lost records and nothing after Close", st, len(ids))
	}
	var got []uint16
	if err := ReadRecords(&buf, func(r Record) error {
		if r.Seq != uint64(len(got)+1) {
			t.Errorf("record %d has seq %d", len(got), r.Seq)
		}
		got = append(got, r.PktID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("Close wrote packets %v, want %v in start order", got, ids)
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
