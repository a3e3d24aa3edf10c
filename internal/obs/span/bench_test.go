package span

import (
	"testing"
	"time"
)

// The acceptance budget: record path (Start+attrs+End with the
// collector draining) <= 50ns/op with 0 allocs; disabled path <= 5ns.
// Numbers are recorded in EXPERIMENTS.md; the zero-alloc half is pinned
// by the guards in span_test.go, so a regression fails `make test`, not
// just a bench eyeball.

func BenchmarkSpanRecord(b *testing.B) {
	tr := New(Options{segments: 8, segmentCap: 16384})
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
	}
}

func BenchmarkSpanRecordParallel(b *testing.B) {
	tr := New(Options{segments: 16, segmentCap: 16384})
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
	tr := New(Options{poll: time.Minute})
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
