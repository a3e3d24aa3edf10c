package ring

import (
	"testing"
	"time"
)

// BenchmarkOffer is the producer's cost of one record with the drain
// goroutine keeping up: what audit's hop hook pays on top of building the
// record.
func BenchmarkOffer(b *testing.B) {
	d := NewDrainer(8, 16384, time.Millisecond, func(*rec) {}, func(bool, Load) error { return nil })
	defer d.Close()
	r := mkRec(0, 0, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Offer(uint64(i), &r, nil)
	}
}
