package repro

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netd"
	"repro/internal/topo"
)

// TestFullStack drives every layer in one scenario: generate an
// Internet-like topology, converge routes with the message-level BGP
// simulator, cross-check the static solver, build the router-level
// deployment, run daemons concurrently, and forward real datagrams over
// UDP sockets with congestion-driven deflection — asserting loop freedom
// and delivery at the end.
func TestFullStack(t *testing.T) {
	const n = 80
	g, err := topo.Generate(topo.GenConfig{N: n, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}

	// Control plane: message-level convergence must match the solver.
	dst := 3
	sim := bgpsim.New(g, dst)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	table := bgp.Compute(g, dst)
	for v := 0; v < n; v++ {
		conv := sim.Best(v)
		static := table.ASPath(v)
		if (conv == nil) != (static == nil) || len(conv) != len(static) {
			t.Fatalf("AS %d: protocol converged to %v, solver says %v", v, conv, static)
		}
	}

	// Data plane: deployment + UDP fabric + concurrent daemons.
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(table)
	fabric, err := netd.NewFabric(dep.Net)
	if err != nil {
		t.Fatal(err)
	}
	fabric.Start()
	defer fabric.Stop()
	rt := core.NewRuntime(dep, 2*time.Millisecond)
	rt.Start()
	defer rt.Stop()

	// Congest every AS's default egress towards the destination.
	congested := 0
	for v := 0; v < n; v++ {
		if v == dst || !table.Reachable(v) {
			continue
		}
		if err := dep.SetLinkLoad(v, table.NextHop(v), 1e9); err == nil {
			congested++
		}
	}
	if congested == 0 {
		t.Fatal("no link congested; scenario broken")
	}
	// The daemons have installed alternatives once every congested AS's
	// FIB carries the alternative its daemon selects from the loads above.
	poll(t, "daemons install the selected alternatives", func() bool {
		for v := 0; v < n; v++ {
			dm := dep.Daemon(v)
			if dm == nil || v == dst || !table.Reachable(v) {
				continue
			}
			sel, ok := dm.SelectAlternative(table)
			if !ok {
				continue
			}
			if e, _ := dep.Net.Router(sel.Router).FIB.Lookup(int32(dst)); e.Alt != sel.Port {
				return false
			}
		}
		return true
	})

	// At most window packets are in the fabric at once: packet i goes in
	// once i-window+1 of the earlier ones have ended.
	const packets, window = 120, 16
	base := ended(fabric.TotalStats())
	sent := int64(0)
	for i := 0; i < packets; i++ {
		src := (i*7 + 1) % n
		if src == dst || !table.Reachable(src) {
			continue
		}
		if sent >= window {
			poll(t, "the window drains", func() bool { return ended(fabric.TotalStats())-base > sent-window })
		}
		sent++
		fabric.Inject(&dataplane.Packet{
			Flow: dataplane.FlowKey{
				SrcAddr: uint32(src),
				DstAddr: dataplane.PrefixAddr(int32(dst)),
				SrcPort: uint16(i),
				Proto:   6,
			},
			Dst: int32(dst),
		}, dep.Routers(src)[0].ID)
	}
	poll(t, "every packet ends", func() bool { return ended(fabric.TotalStats())-base >= sent })

	s := fabric.TotalStats()
	if s.Injected != sent {
		t.Fatalf("injected %d packets, the fabric counted %d", sent, s.Injected)
	}
	// netd.Stats' conservation identity, with nothing left in flight.
	if in, out := s.Received+s.Injected, s.Forwarded+ended(s); in != out {
		t.Fatalf("received+injected %d != forwarded+delivered+drops+parse errors %d; stats %+v", in, out, s)
	}
	if s.DropTTL != 0 {
		t.Fatalf("LOOP: %d TTL drops across the full stack", s.DropTTL)
	}
	if s.Delivered == 0 {
		t.Fatalf("nothing delivered; stats %+v", s)
	}
	if s.Deflected == 0 {
		t.Fatalf("congestion never caused a deflection; stats %+v", s)
	}
	if s.ParseErrors != 0 || s.DropUnknownSender != 0 {
		t.Fatalf("the fabric's own datagrams failed to parse (%d) or came from no peer (%d)", s.ParseErrors, s.DropUnknownSender)
	}
}

// ended counts the packets whose journey is over: every outcome of
// netd.Stats' conservation identity but Forwarded, which hands the packet
// to the next node.
func ended(s netd.Stats) int64 {
	return s.Delivered + s.DropNoRoute + s.DropValleyFree + s.DropTTL + s.DropUnknownSender + s.ParseErrors
}

// poll waits until cond holds and fails the test if it does not within
// ten seconds. Neither the daemons nor the fabric signal that a FIB or a
// counter moved, so this 1 ms poll is the test's only sleep.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}
