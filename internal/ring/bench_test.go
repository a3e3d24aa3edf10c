package ring

import (
	"testing"
	"time"
)

// BenchmarkOffer is the producer's cost of one record with the drain
// goroutine keeping up: what audit's hop hook and span's End pay on top
// of building the record.
func BenchmarkOffer(b *testing.B) {
	d := NewDrainer(8, 16384, time.Millisecond, func(*rec) {}, func(Barrier, Load) error { return nil })
	defer d.Close()
	r := mkRec(0, 0, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Offer(uint64(i), &r, nil)
	}
}

// BenchmarkWordsPut is one tsdb point: two words and the cursor.
func BenchmarkWordsPut(b *testing.B) {
	var r Words
	r.Init(2048, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Put(uint64(i), 42)
	}
}
