package netd

import (
	"bytes"
	"testing"

	"repro/internal/audit"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
)

// TestFlightRecorderStitchesAcrossUDP: with a recorder attached, a
// packet's hops — observed at different nodes, carried between them as
// real datagrams — are stitched into one journey by the packet ID in the
// IPv4 Identification field, and the journey passes the invariant auditor.
func TestFlightRecorderStitchesAcrossUDP(t *testing.T) {
	forEachPath(t, testFlightRecorderStitchesAcrossUDP)
}

func testFlightRecorderStitchesAcrossUDP(t *testing.T, single bool) {
	g := fig2aGraph(t)
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(bgp.Compute(g, 0))
	// Congest AS 1's default so the journey includes a deflection.
	if err := dep.SetLinkLoad(1, 0, 1e9); err != nil {
		t.Fatal(err)
	}
	dep.Refresh()
	f := newFabric(t, dep.Net, single)
	var buf bytes.Buffer
	rec := audit.NewRecorder(audit.Options{Writer: &buf})
	f.AttachRecorder(rec)
	f.Start()

	// Twenty datagrams fit any socket buffer: all twenty journeys end.
	const packets = 20
	stream(t, f, packets, packets, func(i int) {
		f.Inject(&dataplane.Packet{
			Flow: dataplane.FlowKey{SrcAddr: 9, DstAddr: dataplane.PrefixAddr(0), SrcPort: uint16(i), Proto: 6},
			Dst:  0,
		}, dep.Routers(1)[0].ID)
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	st := rec.Stats()
	if st.Delivered != packets {
		t.Fatalf("%d journeys delivered over UDP, %d recorded as delivered: %+v", packets, st.Delivered, st)
	}
	if st.Violations != 0 {
		t.Fatalf("invariant violations across the UDP fabric: %+v\nrecords: %+v",
			st, rec.ViolatingRecords())
	}
	if st.Deflections == 0 {
		t.Fatalf("deflection never recorded despite congested default: %+v", st)
	}

	// Each delivered journey must span multiple hops at distinct routers —
	// proof the packet ID survived marshaling and stitched cross-node
	// observations into one record.
	checked := 0
	if err := audit.ReadRecords(&buf, func(r audit.Record) error {
		if r.Verdict != audit.VerdictDelivered {
			return nil
		}
		checked++
		if len(r.Steps) < 2 {
			t.Fatalf("delivered journey has %d steps, want the full multi-hop trip: %+v", len(r.Steps), r)
		}
		if r.Steps[0].Router == r.Steps[len(r.Steps)-1].Router {
			t.Fatalf("journey start and end at the same router: %+v", r)
		}
		if r.PktID == 0 {
			t.Fatalf("journey missing the stamped packet ID: %+v", r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no delivered records in the JSONL stream")
	}
}

// TestFlightRecorderSeesTagDropOverUDP: when every default is congested,
// the tag-check drops the packet at the second AS; the recorder must
// finalize that journey as a justified valley-free drop, not a violation.
func TestFlightRecorderSeesTagDropOverUDP(t *testing.T) {
	g := fig2aGraph(t)
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(bgp.Compute(g, 0))
	for as := 1; as <= 3; as++ {
		dep.SetLinkLoad(as, 0, 1e9)
	}
	dep.Refresh()
	f := newFabric(t, dep.Net, false)
	rec := audit.NewRecorder(audit.Options{})
	defer rec.Close()
	f.AttachRecorder(rec)
	f.Start()

	f.Inject(&dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 10, DstAddr: dataplane.PrefixAddr(0), DstPort: 81, Proto: 6},
		Dst:  0,
	}, dep.Routers(1)[0].ID)
	waitFor(t, func() bool { return rec.Stats().Dropped > 0 })

	st := rec.Stats()
	if st.Dropped != 1 {
		t.Fatalf("tag-drop journey not finalized: %+v", st)
	}
	if st.Violations != 0 {
		t.Fatalf("justified tag-drop flagged as a violation: %+v", rec.ViolatingRecords())
	}
}
