// mifo-netd runs MIFO as a distributed system on this machine: every
// border router is a goroutine with its own UDP socket exchanging real
// IPv4 datagrams (the valley-free tag in the reserved flag bit, IP-in-IP
// for the iBGP hand-off), while MIFO daemons update the FIBs concurrently
// — the paper's kernel-module + XORP-daemon prototype, in one process.
//
// Usage:
//
//	mifo-netd                 # Fig. 2(c) scenario, congest and watch
//	mifo-netd -n 50 -pkts 500 # random topology stress
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netd"
	"repro/internal/obs"
	"repro/internal/topo"
)

func main() {
	var (
		n       = flag.Int("n", 0, "random topology size (0 = the Fig. 2(c) scenario)")
		pkts    = flag.Int("pkts", 100, "packets to inject")
		seed    = flag.Int64("seed", 1, "topology seed")
		selfMon = flag.Bool("self", false, "derive congestion from measured socket traffic (EWMA link monitor) instead of a preset load")
		dbgAddr = flag.String("debug-addr", "", "serve /metrics and pprof on this address (e.g. :6060)")
		linger  = flag.Duration("linger", 0, "keep running (and serving -debug-addr) this long after the experiment finishes")
	)
	flag.Parse()

	var g *topo.Graph
	var err error
	var expand []int
	dst := 0
	if *n > 0 {
		g, err = topo.Generate(topo.GenConfig{N: *n, Seed: *seed})
	} else {
		// Fig. 2(c): AS 0 expanded to three border routers; destination 4.
		b := topo.NewBuilder(5)
		b.AddPC(1, 0).AddPC(2, 0).AddPC(3, 0)
		b.AddPC(1, 4).AddPC(2, 4).AddPC(3, 4)
		g, err = b.Build()
		expand = []int{0}
		dst = 4
	}
	if err != nil {
		fatal(err)
	}

	capacity := 1e9
	if *selfMon {
		// The demo's packets are headers only (24 B on the wire), so the
		// link capacity must be tiny for the paced stream to register as
		// congestion on loopback.
		capacity = 1e5
	}
	dep := core.NewDeployment(g, core.Config{ExpandASes: expand, LinkCapacityBps: capacity})
	dep.InstallDestination(bgp.Compute(g, dst))

	fabric, err := netd.NewFabric(dep.Net)
	if err != nil {
		fatal(err)
	}

	// The daemons run concurrently with forwarding, as in the prototype.
	runtime := core.NewRuntime(dep, 5*time.Millisecond)

	if *dbgAddr != "" {
		// One registry covers the whole stack: the fabric's packet
		// counters and the daemons' control-loop timings.
		runtime.Instrument(fabric.Registry())
		srv, err := obs.ServeDebug(*dbgAddr, fabric.Registry())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug server on %s (/metrics, /debug/pprof/)\n", srv.URL())
		defer srv.Close()
	}

	fabric.Start()
	defer fabric.Stop()
	fmt.Printf("%d routers listening on loopback UDP (router 0 at %v)\n",
		len(dep.Net.Routers), fabric.Addr(0))

	runtime.Start()
	defer runtime.Stop()

	src := 0
	if *n > 0 {
		src = g.N() / 2
	}
	if *selfMon {
		// Fully self-driving: tiny link capacities so the injected stream
		// itself registers as congestion through the EWMA monitor.
		stop := fabric.MonitorLoads(5 * time.Millisecond)
		defer stop()
		fmt.Println("link monitor active: congestion will be measured, not preset")
	} else {
		// Preset congestion on the default egress so deflection is instant.
		if *n > 0 {
			if t := bgp.Compute(g, dst); t.Reachable(src) {
				next := t.NextHop(src)
				dep.SetLinkLoad(src, next, 1e9)
				fmt.Printf("congested default egress AS %d -> AS %d\n", src, next)
			}
		} else {
			dep.SetLinkLoad(0, 1, 1e9)
			fmt.Println("congested AS 0's default egress towards AS 1")
		}
	}
	ingress := dep.Routers(src)[0]
	if !waitAlt(ingress, int32(dst), time.Second) {
		fmt.Printf("no alternative installed at AS %d after 1s; forwarding on defaults\n", src)
	}

	go func() {
		for i := 0; i < *pkts; i++ {
			// Pace the injection: these are real UDP sockets and an
			// unpaced burst overruns the loopback receive buffers.
			time.Sleep(200 * time.Microsecond)
			p := &dataplane.Packet{
				Flow: dataplane.FlowKey{
					SrcAddr: uint32(src),
					DstAddr: dataplane.PrefixAddr(int32(dst)),
					SrcPort: uint16(i),
					DstPort: 80,
					Proto:   6,
				},
				Dst: int32(dst),
			}
			fabric.Inject(p, ingress.ID)
		}
	}()

	delivered := 0
	timedOut := false
	timeout := time.After(5 * time.Second)
	for delivered < *pkts {
		select {
		case d := <-fabric.Deliveries():
			delivered++
			if delivered <= 3 || delivered == *pkts {
				fmt.Printf("  delivery %d at AS %d (flow port %d, tag=%v)\n",
					delivered, dep.Net.Router(d.At).AS, d.Packet.Flow.SrcPort, d.Packet.Tag)
			}
		case <-timeout:
			fmt.Printf("timed out with %d/%d delivered\n", delivered, *pkts)
			timedOut = true
			goto done
		}
	}
done:
	s := fabric.TotalStats()
	fmt.Printf("\ntotals: %d datagrams received, %d forwarded, %d deflected, %d delivered\n",
		s.Received, s.Forwarded, s.Deflected, s.Delivered)
	fmt.Printf("drops: %d valley-free, %d no-route, %d TTL (a TTL drop would be a loop), %d from unknown senders\n",
		s.DropValleyFree, s.DropNoRoute, s.DropTTL, s.DropUnknownSender)
	fmt.Printf("losses: %d failed sends, %d deliveries nobody took\n", s.SendErrors, s.DeliveriesDropped)
	if *linger > 0 {
		fmt.Printf("lingering %v (debug endpoints stay live)...\n", *linger)
		time.Sleep(*linger)
	}
	if timedOut {
		// An incomplete run is a failure: some packets were lost or looped.
		os.Exit(1)
	}
}

// waitAlt polls r's FIB until dst has an alternative port installed (the
// daemons' first control epoch) or timeout passes, and reports which.
func waitAlt(r *dataplane.Router, dst int32, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if e, ok := r.FIB.Lookup(dst); ok && e.Alt >= 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mifo-netd:", err)
	os.Exit(1)
}
