package span

import (
	"io"
	"testing"
)

// Record path (Start+attrs+End) and disabled path costs; the readings
// are in EXPERIMENTS.md, and the zero-alloc half is pinned by the guards
// in span_test.go, so a regression fails `make test`, not just a bench
// eyeball.

// flushEvery bounds BenchmarkSpanRecord's pending batch, and so its
// memory, whatever b.N is.
const flushEvery = 1 << 16

// BenchmarkSpanRecord is what an instrumented caller pays for one span
// the tracer keeps for its writer: the Flushes that write the batch run
// with the timer stopped (they encode JSON, ~0.7 µs a span).
func BenchmarkSpanRecord(b *testing.B) {
	tr := New(Options{Writer: io.Discard})
	defer tr.Close()
	root := tr.StartRoot("bench_record_root", 0)
	defer root.End()
	pctx := root.Context()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.Start("bench_record_child", pctx, 7)
		s.A = int64(i)
		s.End()
		if i%flushEvery == flushEvery-1 {
			b.StopTimer()
			tr.Flush()
			b.StartTimer()
		}
	}
}

// BenchmarkSpanRecordParallel is the same with producers on every
// processor contending for the tracer's lock. It keeps no batch (no
// Writer), since a Flush inside the parallel loop would be timed.
func BenchmarkSpanRecordParallel(b *testing.B) {
	tr := New(Options{})
	defer tr.Close()
	root := tr.StartRoot("bench_parallel_root", 0)
	defer root.End()
	pctx := root.Context()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := tr.Start("bench_parallel_child", pctx, 7)
			s.End()
		}
	})
}

func BenchmarkSpanDisabled(b *testing.B) {
	tr := New(Options{})
	defer tr.Close()
	tr.SetEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.StartRoot("bench_disabled_root", 0)
		s.End()
	}
}

func BenchmarkSpanNilTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.StartRoot("bench_nil_root", 0)
		s.End()
	}
}
