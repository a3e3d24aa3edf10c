package netd

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
)

// Fully self-driving MIFO over sockets: heavy traffic on the default link
// raises the measured rate, the monitor publishes it as the congestion
// signal, the concurrent daemons install alternatives, and the forwarding
// engine starts deflecting — no SetLinkLoad anywhere.
func TestSelfDrivingDeflection(t *testing.T) {
	g := fig2aGraph(t)
	// Tiny capacities so a test-sized packet stream reads as congestion.
	dep := core.NewDeployment(g, core.Config{LinkCapacityBps: 200_000})
	dep.InstallDestination(bgp.Compute(g, 0))

	f := newFabric(t, dep.Net, false)
	f.Start()
	stopMon := f.MonitorLoads(5 * time.Millisecond)
	defer stopMon()
	rt := core.NewRuntime(dep, 5*time.Millisecond)
	rt.Start()
	defer rt.Stop()

	// Bursts of twenty, back to back, each sent once the last has ended:
	// far above the 200 kbit/s the links are said to carry.
	origin := dep.Routers(1)[0].ID
	deadline := time.Now().Add(10 * time.Second)
	seq := 0
	for time.Now().Before(deadline) && f.StatsOf(origin).Deflected == 0 {
		injectWindowed(t, f, 20, 20, func(int) {
			f.Inject(&dataplane.Packet{
				Flow: dataplane.FlowKey{
					SrcAddr: 1, DstAddr: dataplane.PrefixAddr(0),
					SrcPort: uint16(seq), DstPort: 80, Proto: 6,
				},
				Dst: 0,
			}, origin)
			seq++
		})
	}
	s := f.StatsOf(origin)
	if s.Deflected == 0 {
		t.Fatalf("traffic never triggered a measured deflection; stats %+v", s)
	}
	if tot := f.TotalStats(); tot.DropTTL != 0 {
		t.Fatalf("loops under self-driving deflection: %+v", tot)
	}
	// Deflected packets must still be delivered at AS 0.
	waitStats(t, f, func(tot Stats) bool { return tot.Delivered > 0 })
}
