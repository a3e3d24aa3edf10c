package netd

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dataplane"
)

// The kernel's half of the batching: a run sent with UDP_SEGMENT crosses
// loopback unsegmented and a socket with UDP_GRO on reads it as one message
// that names its segment size, through either reader. A short last segment
// stays in.
func TestKernelCoalescesRun(t *testing.T) { forEachPath(t, testKernelCoalescesRun) }

func testKernelCoalescesRun(t *testing.T, single bool) {
	dep := deployChain(t)
	f := newFabric(t, dep.Net, single)
	from, to := f.nodes[dep.Routers(3)[0].ID], f.nodes[dep.Routers(2)[0].ID]
	if !from.gso && !single {
		t.Skip("this kernel refused UDP_GRO")
	}

	run := coalescedRun(from.router.ID, to.router.ID)
	oob := segmentControl(from.oob[:], dataplane.MaxWireLen)
	if _, _, err := from.conn.WriteMsgUDPAddrPort(run, oob, f.Addr(to.router.ID).AddrPort()); err != nil {
		t.Fatal(err)
	}
	msgs := make([]message, maxBatch)
	byHand(t, to)
	n, err := to.rx.read(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || msgs[0].seg != dataplane.MaxWireLen || len(msgs[0].data) != len(run) || msgs[0].trunc {
		t.Fatalf("read %d messages, the first of %d bytes in segments of %d (trunc %v); sent one run of %d in segments of %d",
			n, len(msgs[0].data), msgs[0].seg, msgs[0].trunc, len(run), dataplane.MaxWireLen)
	}
	if got := f.receive(to, &msgs[0]); got != 4 {
		t.Fatalf("receive saw %d datagrams in a run of 4", got)
	}
	to.flush()
	want := Stats{Received: 4, Forwarded: 4}
	if got := f.StatsOf(to.router.ID); got != want {
		t.Fatalf("node counts %+v, want %+v", got, want)
	}
}

// BenchmarkSocketPrices prices, per 24-byte datagram on loopback, the
// system calls a receive loop can choose between (EXPERIMENTS.md, "netd
// batching"): 32 datagrams sent and then read, one call each or one call
// for all of them.
func BenchmarkSocketPrices(b *testing.B) {
	const burst = 32
	seg := dataplane.WireLen(chainPacket(1))
	var run []byte
	for id := 1; id <= burst; id++ {
		run = dataplane.AppendPacket(run, chainPacket(id))
	}
	oob := segmentControl(make([]byte, oobSpace), seg)
	msgs := make([]message, maxBatch)

	for _, bc := range []struct {
		name    string
		batched bool // the receiver reads with recvmmsg and has GRO on
		send    func(tx *net.UDPConn, to netip.AddrPort) error
	}{
		{"sendto+recvfrom", false, nil},
		{"sendto+recvmmsg", true, nil},
		{"segment+gro", true, func(tx *net.UDPConn, to netip.AddrPort) error {
			_, _, err := tx.WriteMsgUDPAddrPort(run, oob, to)
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				b.Fatal(err)
			}
			defer tx.Close()
			rxc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				b.Fatal(err)
			}
			defer rxc.Close()
			to := rxc.LocalAddr().(*net.UDPAddr).AddrPort()
			var rx reader = &oneReader{conn: rxc}
			if bc.batched {
				var gro bool
				if rx, gro = newReader(rxc); !gro {
					b.Skip("this kernel refused UDP_GRO")
				}
			}
			send := bc.send
			if send == nil {
				send = func(tx *net.UDPConn, to netip.AddrPort) error {
					for d := run; len(d) > 0; d = d[seg:] {
						if _, err := tx.WriteToUDPAddrPort(d[:seg], to); err != nil {
							return err
						}
					}
					return nil
				}
			}
			var sending, reading time.Duration
			reads := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := send(tx, to); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				for got := 0; got < burst; reads++ {
					n, err := rx.read(msgs)
					if err != nil {
						b.Fatal(err)
					}
					for _, m := range msgs[:n] {
						got += len(m.data) / seg
					}
				}
				sending += t1.Sub(t0)
				reading += time.Since(t1)
			}
			pkts := float64(b.N * burst)
			b.ReportMetric(float64(sending.Nanoseconds())/pkts, "send-ns/pkt")
			b.ReportMetric(float64(reading.Nanoseconds())/pkts, "recv-ns/pkt")
			b.ReportMetric(pkts/float64(reads), "pkts/read")
		})
	}
}
