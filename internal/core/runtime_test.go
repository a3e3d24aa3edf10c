package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/dataplane"
	"repro/internal/leakcheck"
	"repro/internal/topo"
)

// Stop returns only once every daemon has left its control epoch: a
// daemon still refreshing after Stop would rewrite FIBs its owner has let
// go.
func TestStopWaitsForDaemons(t *testing.T) {
	g, err := topo.NewBuilder(3).AddPC(1, 0).AddPC(2, 0).AddPeer(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeployment(g, Config{})
	d.InstallDestination(bgp.Compute(g, 0))
	rt := NewRuntime(d, time.Millisecond)
	// Hold the daemons at the start of their next epoch.
	d.tablesMu.Lock()
	rt.Start()
	for !leakcheck.Parked("sync.RWMutex.RLock", "core.(*Deployment).Tables") {
		runtime.Gosched()
	}
	stopped := make(chan struct{})
	go func() {
		rt.Stop()
		close(stopped)
	}()
	for !leakcheck.Parked("sync.WaitGroup.Wait", "core.(*Runtime).Stop") {
		select {
		case <-stopped:
			d.tablesMu.Unlock()
			t.Fatal("Stop returned while a daemon was still in its control epoch")
		default:
			runtime.Gosched()
		}
	}
	d.tablesMu.Unlock()
	<-stopped
}

func TestRuntimeConvergesAltPorts(t *testing.T) {
	// Fig. 2(c)-style setup: AS 0 with expanded routers, alternatives via
	// 2 and 3 towards destination 4.
	b := topo.NewBuilder(5)
	b.AddPC(1, 0).AddPC(2, 0).AddPC(3, 0)
	b.AddPC(1, 4).AddPC(2, 4).AddPC(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeployment(g, Config{ExpandASes: []int{0}})
	table := bgp.Compute(g, 4)
	d.InstallDestination(table)

	rt := NewRuntime(d, 2*time.Millisecond)
	rt.Start()
	defer rt.Stop()

	// Shift the spare-capacity balance at runtime: first 3 is widest.
	if err := d.SetLinkLoad(0, 2, 9e8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		sel, ok := d.Daemon(0).SelectAlternative(table)
		if !ok || sel.Alt.Via != 3 {
			return false
		}
		r := d.Net.Router(sel.Router)
		e, exists := r.FIB.Lookup(4)
		return exists && e.Alt == sel.Port
	})

	// Now make 2 the widest; the daemons must converge without an
	// explicit Refresh call.
	if err := d.SetLinkLoad(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.SetLinkLoad(0, 3, 9e8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		sel, ok := d.Daemon(0).SelectAlternative(table)
		return ok && sel.Alt.Via == 2
	})
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// Forwarding while the daemons rewrite FIBs concurrently: run under -race
// to prove the data plane / control plane split is safe.
func TestRuntimeConcurrentWithForwarding(t *testing.T) {
	g := fig2aGraph(t)
	d := NewDeployment(g, Config{})
	table := bgp.Compute(g, 0)
	d.InstallDestination(table)

	rt := NewRuntime(d, time.Millisecond)
	rt.Start()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			// Oscillate the congestion signal while packets fly.
			d.SetLinkLoad(1, 0, float64(i%2)*1e9)
		}
	}()
	loops := 0
	for i := 0; i < 3000; i++ {
		res := d.Send(dataplane.FlowKey{SrcAddr: uint32(i), DstAddr: 0}, 1, 0)
		if res.Verdict == dataplane.VerdictDrop && res.Reason == dataplane.DropTTL {
			loops++
		}
	}
	<-done
	rt.Stop()
	if loops != 0 {
		t.Fatalf("%d packets looped under concurrent daemon updates", loops)
	}
	// Stop is idempotent; Start works again after Stop.
	rt.Stop()
	rt.Start()
	rt.Stop()
}
