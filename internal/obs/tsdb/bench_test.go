package tsdb

import "testing"

// BenchmarkSample is the hotpath benchmark: one point into the raw ring,
// zero allocations.
func BenchmarkSample(b *testing.B) {
	st := NewStore()
	s := st.Series("bench_sample", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(int64(i), 0.5)
	}
}

// BenchmarkSampleVecResolved measures the realistic instrumented-loop
// shape: the handle was resolved once at registration, sampling is the
// same hotpath.
func BenchmarkSampleVecResolved(b *testing.B) {
	st := NewStore()
	s := st.SeriesVec("bench_vec", "", "run", "link").With("1", "4->9")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(int64(i), 0.5)
	}
}

// BenchmarkAnalyze runs episode detection over a gathered store.
func BenchmarkAnalyze(b *testing.B) {
	st := NewStore(Options{RawCap: 1024})
	st.SetEpisodeSpec(EpisodeSpec{Util: "bench_util", Deflections: "bench_defl", OffloadBits: "bench_off", Threshold: 0.9, Window: 10})
	uv := st.SeriesVec("bench_util", "", "link")
	dv := st.SeriesVec("bench_defl", "", "link")
	ov := st.SeriesVec("bench_off", "", "link")
	for l := 0; l < 32; l++ {
		name := string(rune('a' + l%26))
		u, d, o := uv.With(name), dv.With(name), ov.With(name)
		for i := 0; i < 500; i++ {
			util := 0.5
			if i%100 > 50 {
				util = 0.97
			}
			u.Sample(int64(i), util)
			d.Sample(int64(i), float64(i/10))
			o.Sample(int64(i), float64(i*1000))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := AnalyzeStore(st, EpisodeSpec{})
		if len(rep.Episodes) == 0 {
			b.Fatal("no episodes detected")
		}
	}
}
