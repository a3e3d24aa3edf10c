package netd

import (
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/topo"
)

// outcomes sums the terminal counters a received or injected packet can
// land in.
func outcomes(s Stats) int64 {
	return s.Forwarded + s.Delivered + s.DropNoRoute + s.DropValleyFree + s.DropTTL + s.DropUnknownSender + s.ParseErrors
}

// TestStatsInvariantUnderLoad asserts the conservation invariant documented
// on Stats — Received + Injected == Forwarded + Delivered + drops +
// ParseErrors — after a multi-node run with concurrent daemon goroutines,
// a flight recorder on every router's hop hook, and the link monitor all
// running. The Makefile's race matrix runs this package under -race, so
// the invariant doubles as a data race probe over every counter path.
func TestStatsInvariantUnderLoad(t *testing.T) { forEachPath(t, testStatsInvariantUnderLoad) }

func testStatsInvariantUnderLoad(t *testing.T, single bool) {
	g, err := topo.Generate(topo.GenConfig{N: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(bgp.Compute(g, 0))
	for v := 0; v < g.N(); v++ {
		for j, nb := range g.Neighbors(v) {
			if (v+j)%3 == 0 {
				dep.SetLinkLoad(v, int(nb.AS), 1e9)
			}
		}
	}

	f := newFabric(t, dep.Net, single)
	rec := audit.NewRecorder(audit.Options{})
	defer rec.Close()
	f.AttachRecorder(rec)
	f.Start()
	stopMon := f.MonitorLoads(2 * time.Millisecond)
	defer stopMon()
	rt := core.NewRuntime(dep, 2*time.Millisecond)
	rt.Instrument(f.Registry())
	rt.Start()
	defer rt.Stop()

	// Some datagrams come from outside: a stranger's well-formed packet
	// and garbage, both of which the invariant has to absorb.
	stranger, err := net.Dial("udp", f.Addr(dep.Routers(1)[0].ID).String())
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	strange := [][]byte{
		dataplane.MarshalPacket(&dataplane.Packet{Flow: dataplane.FlowKey{SrcAddr: 99, Proto: 6}, Dst: 0, TTL: 5}),
		[]byte("no packet"),
	}

	// When injectWindowed returns every packet has reached the counter it
	// ends in, and with no datagram lost or made up nothing is in flight:
	// the fabric is quiescent.
	const packets = 400
	injectWindowed(t, f, packets, 32, func(i int) {
		src := 1 + i%(g.N()-1)
		if i%100 == 0 {
			// Each ends where it arrives, so it stands in for the packet
			// injectWindowed expects this call to add.
			if _, err := stranger.Write(strange[i/100%2]); err != nil {
				t.Fatal(err)
			}
			return
		}
		f.Inject(&dataplane.Packet{
			Flow: dataplane.FlowKey{SrcAddr: uint32(src), DstAddr: dataplane.PrefixAddr(0), SrcPort: uint16(i), Proto: 6},
			Dst:  0,
		}, dep.Routers(src)[0].ID)
	})

	s := f.TotalStats()
	if got, want := outcomes(s), s.Received+s.Injected; got != want {
		t.Errorf("outcome sum %d != received+injected %d; totals: %+v", got, want, s)
	}
	if s.Delivered == 0 {
		t.Error("nothing was delivered")
	}
	if s.DropUnknownSender != 2 || s.ParseErrors != 2 || s.Injected != packets-4 {
		t.Errorf("4 of %d datagrams came from a stranger, 2 well-formed and 2 not; totals: %+v", packets, s)
	}
	// The invariant holds per node too, not just in aggregate.
	for i := range dep.Net.Routers {
		ns := f.StatsOf(dataplane.RouterID(i))
		if outcomes(ns) != ns.Received+ns.Injected {
			t.Errorf("router %d violates the invariant: %+v", i, ns)
		}
	}

	// /metrics names exactly the families the fabric and the daemons
	// register: a renamed metric, or two sites aliasing one, changes it.
	var exp strings.Builder
	if err := f.Registry().WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(exp.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(rest)[0])
		}
	}
	want := []string{
		"core_daemon_epoch_seconds", "core_daemon_epochs_total", "core_fib_commit_seconds", "core_fib_generation",
		"netd_deflected_total", "netd_delivered_total", "netd_deliveries_dropped_total", "netd_drops_total",
		"netd_forwarded_total", "netd_injected_total", "netd_link_rate_bps", "netd_parse_errors_total",
		"netd_process_seconds", "netd_received_total", "netd_send_errors_total",
	}
	if !slices.Equal(families, want) {
		t.Errorf("/metrics families %v, want %v", families, want)
	}
}
