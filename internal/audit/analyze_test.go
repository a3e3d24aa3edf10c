package audit

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/topo"
)

// buildLog records a few journeys and returns the JSONL bytes.
func buildLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(Options{Writer: &buf})
	hook := rec.RouterHook()

	// Three delivered packets to dst 7, one of them deflected.
	for i := 0; i < 3; i++ {
		p := &dataplane.Packet{Flow: dataplane.FlowKey{SrcAddr: uint32(i), DstAddr: 7}, ID: uint16(i), Dst: 7}
		h := forwardHop(0, 1, dataplane.EBGP, topo.Provider, true)
		h.Deflected = i == 0
		hook(p, h)
		hook(p, dataplane.HopInfo{Router: 1, AS: 7, Out: -1, Verdict: dataplane.VerdictDeliver})
	}
	// One tag-dropped packet to dst 5.
	p := &dataplane.Packet{Flow: dataplane.FlowKey{DstAddr: 5}, Dst: 5}
	hook(p, forwardHop(0, 1, dataplane.EBGP, topo.Provider, true))
	hook(p, dataplane.HopInfo{
		Router: 1, AS: 2, Out: -1,
		Verdict: dataplane.VerdictDrop, Reason: dataplane.DropValleyFree,
		AltTried: true, AltRel: topo.Peer,
	})
	// One flow-path record with a known baseline, so stretch shows up.
	rec.RecordPath(PathRecord{Flow: 11, Dst: 7, BaselineLen: 2, Steps: []Step{
		{Router: -1, AS: 1, Edge: EdgeUp, Tag: true},
		{Router: -1, AS: 2, Edge: EdgeDown, Tag: true, Deflected: true},
		{Router: -1, AS: 7, Edge: EdgeNone},
	}})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSummarize(t *testing.T) {
	log := buildLog(t)
	s, err := Summarize(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != 5 || s.PacketRecords != 4 || s.PathRecords != 1 {
		t.Fatalf("record counts: %+v", s)
	}
	if s.Verdicts[VerdictDelivered] != 3 || s.Verdicts[VerdictDropped] != 1 || s.Verdicts[VerdictPath] != 1 {
		t.Fatalf("verdicts = %v", s.Verdicts)
	}
	if s.DropReasons["valley-free"] != 1 {
		t.Fatalf("drop reasons = %v", s.DropReasons)
	}
	if s.DeflectedRecords != 2 || s.TotalDeflections != 2 {
		t.Fatalf("deflections: %d records / %d total", s.DeflectedRecords, s.TotalDeflections)
	}
	if s.TotalViolations != 0 {
		t.Fatalf("violations = %v", s.Violations)
	}
	if s.Stretch[1] != 1 || s.StretchN != 1 {
		t.Fatalf("stretch = %v (n=%d), want one +1 sample", s.Stretch, s.StretchN)
	}

	tops := s.TopPrefixes(10)
	if len(tops) != 2 || tops[0].Dst != 7 || tops[0].Records != 4 {
		t.Fatalf("top prefixes = %+v", tops)
	}
	if r := tops[0].DeflectionRate(); r != 0.5 {
		t.Fatalf("deflection rate for dst 7 = %v, want 0.5", r)
	}

	var out bytes.Buffer
	s.Format(&out, 5)
	report := out.String()
	for _, want := range []string{"5 records", "valley-free", "invariant violations: 0", "top 5 prefixes"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestFormatRecordDrillDown(t *testing.T) {
	log := buildLog(t)
	var target *Record
	if err := ReadRecords(bytes.NewReader(log), func(r Record) error {
		if r.Verdict == VerdictDropped {
			rc := r
			target = &rc
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if target == nil {
		t.Fatal("no dropped record in log")
	}
	var out bytes.Buffer
	FormatRecord(&out, *target)
	text := out.String()
	for _, want := range []string{"verdict=dropped", "valley-free", "refused=across", "AS1/r0", "tag=T"} {
		if !strings.Contains(text, want) {
			t.Fatalf("drill-down missing %q:\n%s", want, text)
		}
	}
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	err := ReadRecords(strings.NewReader("{\"seq\":1,\"kind\":\"packet\"}\nnot json\n"), func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

// sealedLogTail is the last batch of a flight log written before logs
// became plain JSONL: a journey carrying its batch number, then the
// batch-seal line that committed it.
const sealedLogTail = `{"seq":3,"kind":"flow-path","flow":1,"dst":9,"steps":[{"router":-1,"as":1,"edge":"up","tag":true},{"router":-1,"as":9,"edge":"none"}],"verdict":"path","baseline_len":2,"batch":2}
{"kind":"batch-seal","batch":2,"records":1,"root":"c455b21daa2ee18a78641dd556f9f8ecd7e574528fd236cf6450050d57ec56b1","prev":"c99a657812407c0e1a6c81d84c13755a5ae78e6b4a83f36459e2a47528567d4e","seal":"64d159bc7859a124c45a1d5b1f4ecaf5e2735b1cfc6b919de81afd66ea0aab7a"}
`

// TestReadRecordsRejectsUnknownKinds: a line that is not a packet journey
// or a flow path is an error naming the line, not a zero-step packet
// record in the summary.
func TestReadRecordsRejectsUnknownKinds(t *testing.T) {
	packet := `{"seq":1,"kind":"packet","flow":5,"dst":7,"steps":[{"router":0,"as":7,"edge":"none"}],"verdict":"delivered"}` + "\n"
	path := `{"seq":2,"kind":"flow-path","flow":6,"dst":7,"steps":[{"router":-1,"as":7,"edge":"none"}],"verdict":"path"}` + "\n"
	for _, tc := range []struct {
		name, log string
		badLine   int // 0: the log is accepted
	}{
		{"packet and flow-path", packet + "\n" + path, 0},
		{"bogus kind", packet + `{"kind":"bogus"}` + "\n", 2},
		{"no kind", `{"seq":1,"steps":[]}` + "\n" + packet, 1},
		{"sealed log from before plain JSONL", sealedLogTail, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			err := ReadRecords(strings.NewReader(tc.log), func(Record) error { n++; return nil })
			_, sumErr := Summarize(strings.NewReader(tc.log))
			if tc.badLine == 0 {
				if err != nil || sumErr != nil || n != 2 {
					t.Fatalf("read %d records, err %v, Summarize err %v; want 2 and no error", n, err, sumErr)
				}
				return
			}
			want := fmt.Sprintf("line %d:", tc.badLine)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("ReadRecords err = %v, want one naming %q", err, want)
			}
			if sumErr == nil {
				t.Fatal("Summarize accepted the log")
			}
		})
	}
}
