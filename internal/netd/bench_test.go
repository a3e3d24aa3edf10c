package netd

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
)

// BenchmarkUDPForwarding measures end-to-end datagram throughput of the
// socket fabric on the Fig. 2(a) topology (inject at AS 1, deliver at
// AS 0, two sockets on the path) with one packet in flight: no batch
// forms, every read and send carries one datagram.
func BenchmarkUDPForwarding(b *testing.B) { benchmarkUDPForwarding(b, 1) }

// BenchmarkUDPForwardingWindowed keeps 32 packets in flight on one P, the
// benchmark's saturating phase: receive batches and UDP_SEGMENT runs fill.
func BenchmarkUDPForwardingWindowed(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchmarkUDPForwarding(b, 32)
}

func benchmarkUDPForwarding(b *testing.B, window int) {
	g := fig2aGraph(b)
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(bgp.Compute(g, 0))
	f := newFabric(b, dep.Net, false)
	f.Start()
	origin := dep.Routers(1)[0].ID
	const stallAfter = 10 * time.Second
	stall := time.NewTimer(stallAfter)
	defer stall.Stop()

	b.ReportAllocs()
	b.ResetTimer()
	for sent, delivered := 0, 0; delivered < b.N; {
		for ; sent < b.N && sent-delivered < window; sent++ {
			f.Inject(&dataplane.Packet{
				Flow: dataplane.FlowKey{
					SrcAddr: 1, DstAddr: dataplane.PrefixAddr(0),
					SrcPort: uint16(sent), Proto: 6,
				},
				Dst: 0,
			}, origin)
		}
		if delivered%4096 == 0 {
			stall.Reset(stallAfter) // per delivery it would be a tenth of what is measured
		}
		select {
		case <-f.Deliveries():
			delivered++
		case <-stall.C:
			b.Fatalf("delivered %d of %d", delivered, b.N)
		}
	}
}

// BenchmarkWireMarshal measures the serialization hot path.
func BenchmarkWireMarshal(b *testing.B) {
	p := &dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 1, DstAddr: dataplane.PrefixAddr(3), DstPort: 80, Proto: 6},
		Dst:  3, Tag: true, TTL: 64, Encap: true, OuterSrc: 1, OuterDst: 2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire := dataplane.MarshalPacket(p)
		if _, err := dataplane.UnmarshalPacket(wire); err != nil {
			b.Fatal(err)
		}
	}
}
