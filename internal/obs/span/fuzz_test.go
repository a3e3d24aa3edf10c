package span

import (
	"bytes"
	"math"
	"testing"
	"unicode/utf8"

	"repro/internal/jsonl"
)

// FuzzReadRecords feeds arbitrary bytes to the span-log readers
// (ReadRecords → Analyze, what `mifo-inspect spans` runs on a log file from outside
// the process): no input may make them panic. It also writes a root and a
// child span built from the fuzzed fields with the tracer's encoder and
// requires ReadRecords to hand back exactly those records.
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte(`{"trace":1,"id":1,"name":"conv_link_down","start_ns":0,"end_ns":9,"node":-1,"a":3,"b":1}
{"trace":1,"id":2,"parent":1,"name":"route_recompute","start_ns":1,"end_ns":2,"node":0,"v":1}
{"trace":1,"id":3,"parent":2,"name":"fib_swap","start_ns":3,"end_ns":4,"node":5}`),
		RootLinkDown, uint64(1), int64(0), int64(9), int32(-1), int64(3), int64(1), 0.5)
	f.Add([]byte("{\"trace\":7,\"id\":0}\n\n{"), "bgp_session_up", uint64(1<<63), int64(-5), int64(math.MaxInt64), int32(7), int64(-1), int64(0), -1.0)
	f.Add([]byte(`{"trace":2,"id":4,"parent":9,"name":"daemon_epoch","start_ns":10,"end_ns":3}`), "fib_commit", uint64(2), int64(1), int64(1), int32(0), int64(0), int64(0), 0.0)

	f.Fuzz(func(t *testing.T, log []byte, name string, id uint64, start, end int64, node int32, a, b int64, v float64) {
		if recs, err := ReadRecords(bytes.NewReader(log)); err == nil {
			rep := Analyze(recs)
			if rep.Records != len(recs) || len(rep.Events) > len(recs) {
				t.Fatalf("report of %d records: %d records, %d events", len(recs), rep.Records, len(rep.Events))
			}
			rep.CompleteEvents()
			rep.ConvergenceSeconds()
		}

		// Round trip. JSON carries neither invalid UTF-8 nor non-finite
		// floats, and ReadRecords rejects a zero span id.
		if id == 0 || id == math.MaxUint64 || !utf8.ValidString(name) || math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want := []Record{
			{Trace: id, ID: id, Name: name, Start: start, End: end, Node: node, A: a, B: b, V: v},
			{Trace: id, ID: id + 1, Parent: id, Name: "fib_swap", Start: end, End: start, Node: -node, A: b, B: a, V: -v},
		}
		var buf bytes.Buffer
		sink := jsonl.New(&buf)
		for i := range want {
			if err := sink.Encode(&want[i]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ReadRecords(&buf)
		if err != nil {
			t.Fatalf("reading back what was written: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("read %d records back, wrote %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: wrote %+v, read %+v", i, want[i], got[i])
			}
		}
	})
}
