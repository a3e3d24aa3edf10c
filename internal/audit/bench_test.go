package audit

import (
	"io"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/topo"
)

// benchRouters is a two-router line: AS 1 forwards every packet to AS 2,
// which owns prefix 2 — a complete begin-to-deliver journey per run.
// The benchmarks drive Router.Forward directly (like the dataplane's own
// BenchmarkForwardDefaultPathNilHook) rather than Network.Send, whose
// Result.Hops bookkeeping allocates and would mask the recorder's cost.
func benchRouters(b *testing.B) (a, d *dataplane.Router, pd int, hookable []*dataplane.Router) {
	b.Helper()
	n := dataplane.NewNetwork()
	a = n.AddRouter(1)
	d = n.AddRouter(2)
	pa, pdi := n.Connect(a.ID, d.ID, dataplane.EBGP, topo.Customer, 1e9)
	a.FIB.Set(2, dataplane.FIBEntry{Out: pa, Alt: -1, AltVia: -1})
	d.Local[2] = true
	return a, d, pdi, []*dataplane.Router{a, d}
}

// runJourneys drives b.N complete two-hop journeys.
func runJourneys(b *testing.B, a, d *dataplane.Router, pd int) {
	b.Helper()
	p := &dataplane.Packet{Flow: dataplane.FlowKey{SrcAddr: 1, DstAddr: 2, Proto: 6}, Dst: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ID = uint16(i)
		p.TTL = 8
		p.Tag = false
		p.Encap = false
		a.Forward(p, -1)
		d.Forward(p, pd)
	}
	b.StopTimer()
}

// BenchmarkJourneyRecorderDisabled is the baseline: no hook attached,
// the recorder costs one nil check per forwarding decision. Guarded at
// 0 allocs by TestRecorderHotPathZeroAlloc.
func BenchmarkJourneyRecorderDisabled(b *testing.B) {
	a, d, pd, _ := benchRouters(b)
	runJourneys(b, a, d, pd)
}

// BenchmarkJourneyRecorderUnsampledFlow: hook attached but the flow
// falls outside the sampling rate — the per-hop cost is one flow hash
// and a compare, 0 allocs.
func BenchmarkJourneyRecorderUnsampledFlow(b *testing.B) {
	a, d, pd, rs := benchRouters(b)
	rec := NewRecorder(Options{Sample: 1e-9})
	defer rec.Close()
	hook := rec.RouterHook()
	for _, r := range rs {
		r.Hop = hook
	}
	runJourneys(b, a, d, pd)
	if rec.Stats().Records != 0 {
		b.Fatal("flow was sampled; benchmark measures the wrong path")
	}
}

// BenchmarkJourneyRecorderNoSink: 100% sampling without a JSONL writer —
// the per-journey cost a live run pays to keep counters, online
// invariant checking, and violation retention, all on the forwarding
// goroutine.
func BenchmarkJourneyRecorderNoSink(b *testing.B) {
	benchRecorded(b, Options{})
}

// BenchmarkJourneyRecorderFullSampling: every journey recorded, checked,
// and encoded to a discarded JSONL sink — the full-cost ceiling, JSON
// marshalling included.
func BenchmarkJourneyRecorderFullSampling(b *testing.B) {
	benchRecorded(b, Options{Writer: io.Discard})
}

// benchRecorded drives b.N journeys through a recorder that samples every
// flow, and fails unless each of them was recorded whole and clean: a
// figure for fewer journeys than it timed would read too low.
func benchRecorded(b *testing.B, o Options) {
	a, d, pd, rs := benchRouters(b)
	rec := NewRecorder(o)
	hook := rec.RouterHook()
	for _, r := range rs {
		r.Hop = hook
	}
	runJourneys(b, a, d, pd)
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
	if st := rec.Stats(); st.Records != uint64(b.N) || st.Delivered != uint64(b.N) || st.Violations != 0 {
		b.Fatalf("recorded %+v over %d journeys, want each delivered and clean", st, b.N)
	}
}
