package netsim

import (
	"bytes"
	"io"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/traffic"
)

// hogAndReturner is the scenario of TestMIFOSwitchBack: flow 0 congests
// AS 1's default egress, flow 1 arrives, is deflected through a peer, and
// returns once the hog finishes.
var hogAndReturner = []traffic.Flow{
	{ID: 0, Src: 1, Dst: 0, SizeBits: 100 * mb, Arrival: 0},
	{ID: 1, Src: 1, Dst: 0, SizeBits: 200 * mb, Arrival: 0.05},
}

// TestFlightRecorderAuditsMIFORun runs the hog-and-returner scenario with a
// flight recorder at 100% sampling and a TSDB attached, and checks the
// acceptance properties: every installed path passes the invariant
// auditor, and the recorder's stats, the tsdb deflection series and the
// JSONL stream alone all count the same deflections.
func TestFlightRecorderAuditsMIFORun(t *testing.T) {
	g := fig2aGraph(t)
	flows := hogAndReturner
	var buf bytes.Buffer
	rec := audit.NewRecorder(audit.Options{Writer: &buf})
	db := tsdb.NewStore()
	res, err := Run(g, flows, Config{Policy: PolicyMIFO, Recorder: rec, TSDB: db})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[1].UsedAlt {
		t.Fatal("scenario drifted: flow 1 never deflected")
	}
	// Seal the async sink so the JSONL checks below see every record.
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	st := rec.Stats()
	if st.Violations != 0 {
		t.Fatalf("invariant violations in a correct MIFO run: %+v\nrecords: %+v",
			st, rec.ViolatingRecords())
	}
	if st.Deflections == 0 {
		t.Fatal("scenario drifted: the recorder counted no deflections")
	}
	if got := tsdb.Analyze(db.Gather(), db.EpisodeSpec()).TotalDeflections; got != int64(st.Deflections) {
		t.Fatalf("tsdb series count %d deflections, recorder %d", got, st.Deflections)
	}

	// The JSONL stream alone must reproduce the same deflection count and
	// carry one record per installed path: two arrivals plus one per
	// switch (deflections and returns).
	sum, err := audit.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalDeflections != int(st.Deflections) {
		t.Fatalf("JSONL reconstructs %d deflections, recorder counted %d", sum.TotalDeflections, st.Deflections)
	}
	if sum.TotalViolations != 0 {
		t.Fatalf("JSONL carries violations: %v", sum.Violations)
	}
	switches := res.Flows[0].Switches + res.Flows[1].Switches
	if want := len(flows) + switches; sum.Records != want {
		t.Fatalf("records = %d, want %d (one per install: %d arrivals + %d switches)",
			sum.Records, want, len(flows), switches)
	}
	if sum.PathRecords != sum.Records {
		t.Fatalf("netsim must emit flow-path records only: %+v", sum)
	}
	// Deflected installs are longer than the two-hop default, so stretch
	// samples must exist and include a positive bucket.
	if sum.StretchN != sum.Records {
		t.Fatalf("every flow-path record has a baseline; stretch n = %d of %d", sum.StretchN, sum.Records)
	}
	if sum.Stretch[1] == 0 {
		t.Fatalf("no +1 stretch sample despite deflections: %v", sum.Stretch)
	}
}

// TestRecorderAuditsDeflectionDecisions: the flight log names which flow
// was deflected, at which border AS and toward which neighbor, and when it
// came back. Flow 1's path records, in Seq order, are its arrival on the
// default path, the deflection at AS 1 through peer 2 or 3, and the return
// to the default path.
func TestRecorderAuditsDeflectionDecisions(t *testing.T) {
	g := fig2aGraph(t)
	var buf bytes.Buffer
	rec := audit.NewRecorder(audit.Options{Writer: &buf})
	res, err := Run(g, hogAndReturner, Config{Policy: PolicyMIFO, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if !res.Flows[1].UsedAlt || res.Flows[1].Switches != 2 {
		t.Fatalf("scenario drifted: flow 1 usedAlt=%v switches=%d",
			res.Flows[1].UsedAlt, res.Flows[1].Switches)
	}

	var paths []audit.Record
	err = audit.ReadRecords(&buf, func(r audit.Record) error {
		if r.Flow == 1 {
			paths = append(paths, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].Seq < paths[j].Seq })
	if len(paths) != 3 {
		t.Fatalf("flow 1 has %d path records, want 3 (arrival, deflection, return)", len(paths))
	}
	deflectedAt := func(r audit.Record) int {
		for i, s := range r.Steps {
			if s.Deflected {
				return i
			}
		}
		return -1
	}
	arrival, deflection, back := paths[0], paths[1], paths[2]
	if i := deflectedAt(arrival); i >= 0 {
		t.Errorf("arrival record deflected at step %d: %+v", i, arrival.Steps)
	}
	i := deflectedAt(deflection)
	if i < 0 || i+1 >= len(deflection.Steps) {
		t.Fatalf("deflection record has no deflected step with a next hop: %+v", deflection.Steps)
	}
	if as := deflection.Steps[i].AS; as != 1 {
		t.Errorf("deflection decided at AS %d, want border AS 1", as)
	}
	if next := deflection.Steps[i+1].AS; next != 2 && next != 3 {
		t.Errorf("deflection via AS %d, want peer 2 or 3", next)
	}
	if i := deflectedAt(back); i >= 0 {
		t.Errorf("return record deflected at step %d: %+v", i, back.Steps)
	}
}

// TestFlightRecorderSkipsMIRO: MIRO's negotiated tunnels are exempt from
// the classic valley-free audit, so a MIRO run must record nothing.
func TestFlightRecorderSkipsMIRO(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
	}
	rec := audit.NewRecorder(audit.Options{})
	defer rec.Close()
	if _, err := Run(g, flows, Config{Policy: PolicyMIRO, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	if st := rec.Stats(); st.Records != 0 {
		t.Fatalf("MIRO run recorded %d flight records, want 0", st.Records)
	}
}

// TestFlightRecorderBGPBaseline: a BGP run records exactly one default-path
// install per routable flow, none deflected.
func TestFlightRecorderBGPBaseline(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 2, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
	}
	rec := audit.NewRecorder(audit.Options{})
	defer rec.Close()
	if _, err := Run(g, flows, Config{Policy: PolicyBGP, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Records != 2 || st.Paths != 2 || st.Deflections != 0 || st.Violations != 0 {
		t.Fatalf("stats = %+v, want 2 clean path records", st)
	}
}

// TestObserversLeaveRunIdentical: attaching any observer — the flight
// recorder, the TSDB, the span tracer, or all three — must not perturb
// the simulation. The scenario deflects a flow and fails a link, so every
// observer has something to record.
func TestObserversLeaveRunIdentical(t *testing.T) {
	g := fig2aGraph(t)
	base := Config{
		Policy:             PolicyMIFO,
		Failures:           []LinkFailure{{A: 1, B: 0, At: 0.3, RecoverAt: 0.6}},
		ReconvergenceDelay: 0.1,
	}
	plain, err := Run(g, hogAndReturner, base)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Flows[1].UsedAlt {
		t.Fatal("scenario drifted: flow 1 never deflected")
	}

	for _, tc := range []struct {
		name                string
		recorder, db, spans bool
	}{
		{name: "recorder", recorder: true},
		{name: "tsdb", db: true},
		{name: "spans", spans: true},
		{name: "all", recorder: true, db: true, spans: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			if tc.recorder {
				cfg.Recorder = audit.NewRecorder(audit.Options{})
				defer cfg.Recorder.Close()
			}
			if tc.db {
				cfg.TSDB = tsdb.NewStore()
			}
			if tc.spans {
				cfg.Spans = span.New(span.Options{Writer: io.Discard})
				defer cfg.Spans.Close()
			}
			got, err := Run(g, hogAndReturner, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Each observer must actually have observed the run.
			if cfg.Recorder != nil && cfg.Recorder.Stats().Records == 0 {
				t.Error("recorder saw no path installs")
			}
			if cfg.TSDB != nil && tsdb.Analyze(cfg.TSDB.Gather(), cfg.TSDB.EpisodeSpec()).SeriesScanned == 0 {
				t.Error("tsdb registered no link series")
			}
			if cfg.Spans != nil && cfg.Spans.Stats().Roots == 0 {
				t.Error("span tracer opened no roots")
			}

			if len(got.Flows) != len(plain.Flows) {
				t.Fatalf("%d flows with %s attached, %d without", len(got.Flows), tc.name, len(plain.Flows))
			}
			for i := range plain.Flows {
				if plain.Flows[i] != got.Flows[i] {
					t.Errorf("flow %d differs with %s attached: %+v vs %+v",
						i, tc.name, plain.Flows[i], got.Flows[i])
				}
			}
			if p, q := plain.OffloadedBits(), got.OffloadedBits(); p != q {
				t.Errorf("offloaded bits %v with %s attached, %v without", q, tc.name, p)
			}
		})
	}
}
