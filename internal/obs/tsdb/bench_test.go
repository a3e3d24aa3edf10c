package tsdb

import "testing"

// benchPoints bounds a benchmarked series: the loops below empty it every
// benchPoints samples, keeping its array, so memory stays at 1 MiB however
// large b.N grows and the timed path is the append itself.
const benchPoints = 1 << 16

// BenchmarkSample is the hotpath benchmark: one point appended to a series.
func BenchmarkSample(b *testing.B) {
	st := NewStore()
	s := st.SeriesVec("bench_sample", "").With()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchPoints == 0 {
			s.pts = s.pts[:0]
		}
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
		if i%benchPoints == 0 {
			s.pts = s.pts[:0]
		}
		s.Sample(int64(i), 0.5)
	}
}

// BenchmarkAnalyze runs episode detection over a gathered store.
func BenchmarkAnalyze(b *testing.B) {
	st := NewStore()
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
		rep := Analyze(st.Gather(), st.EpisodeSpec())
		if len(rep.Episodes) == 0 {
			b.Fatal("no episodes detected")
		}
	}
}
