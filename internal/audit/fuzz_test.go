package audit

import (
	"bytes"
	"io"
	"testing"
)

// flightLog records a few flow paths — one deflected, one breaching the
// valley-free rule — and returns the JSONL log.
func flightLog(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(Options{Writer: &buf})
	up := Step{Router: -1, AS: 1, Edge: EdgeUp, Tag: true}
	across := Step{Router: -1, AS: 2, Edge: EdgeAcross, Deflected: true}
	rec.RecordPath(PathRecord{Flow: 1, Dst: 9, BaselineLen: 2, Steps: []Step{up, {Router: -1, AS: 9}}})
	rec.RecordPath(PathRecord{Flow: 2, Dst: 9, BaselineLen: 2, Steps: []Step{up, across, {Router: -1, AS: 9}}})
	rec.RecordPath(PathRecord{Flow: 3, Dst: 9, Steps: []Step{up, {Router: -1, AS: 2, Edge: EdgeUp}, {Router: -1, AS: 9}}})
	if err := rec.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadRecords feeds arbitrary bytes to the reader of an untrusted
// flight log: ReadRecords → Summarize, and the report renderers. A log
// file is input from outside the process, so the property is that no
// input makes any of them panic, and that what they accept is coherent:
// only packet journeys and flow paths, counted the same by both.
func FuzzReadRecords(f *testing.F) {
	log := flightLog(f)
	f.Add(log)
	f.Add(log[:len(log)/2])
	f.Add(bytes.ReplaceAll(log, []byte(`"kind":"flow-path"`), []byte(`"kind":"bogus"`)))
	f.Add([]byte(sealedLogTail))
	f.Add([]byte(`{"kind":"batch-seal","batch":1,"records":1,"root":"","prev":"","seal":""}`))
	f.Add([]byte("{\"kind\":\"packet\",\"steps\":[{\"edge\":\"sideways\"}],\"violations\":[{\"invariant\":\"bogus\",\"step\":-3}]}\n\n{"))

	f.Fuzz(func(t *testing.T, log []byte) {
		n := 0
		readErr := ReadRecords(bytes.NewReader(log), func(r Record) error {
			if r.Kind != KindPacket && r.Kind != KindPath {
				t.Fatalf("ReadRecords passed on a record of kind %q", r.Kind)
			}
			FormatRecord(io.Discard, r)
			n++
			return nil
		})
		sum, err := Summarize(bytes.NewReader(log))
		if (err == nil) != (readErr == nil) {
			t.Fatalf("Summarize err = %v, ReadRecords err = %v", err, readErr)
		}
		if err == nil {
			if sum.Records != n || sum.PathRecords+sum.PacketRecords != sum.Records {
				t.Fatalf("summary of %d records counts %d (%d path + %d packet)",
					n, sum.Records, sum.PathRecords, sum.PacketRecords)
			}
			sum.Format(io.Discard, 0)
		}
	})
}

// FuzzChecker feeds arbitrary hop sequences to the online checker. The
// checker runs inside forwarding hot paths, so the property under test is
// simply that no input — however malformed — makes it panic, and that its
// bookkeeping stays coherent (violation step indices in range, Reset
// restores a clean state).
func FuzzChecker(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02})
	// A plausible up-across-down journey: each hop is 3 bytes
	// (AS, edge, flags).
	f.Add([]byte{1, 1, 0x01, 2, 2, 0x01, 3, 3, 0x00, 4, 0, 0x00})
	// Hostile bytes: out-of-range edges, every flag set, AS revisits.
	f.Add([]byte{9, 200, 0xff, 9, 7, 0xff, 9, 200, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Checker
		steps := 0
		for i := 0; i+3 <= len(data); i += 3 {
			s := Step{
				Router:       int32(i/3) - 1,
				AS:           int32(data[i]),
				Edge:         EdgeClass(data[i+1]), // may be far out of range
				Tag:          data[i+2]&0x01 != 0,
				Encap:        data[i+2]&0x02 != 0,
				EncapArrival: data[i+2]&0x04 != 0,
				Deflected:    data[i+2]&0x08 != 0,
				Refused:      EdgeClass(data[i+2] >> 4),
			}
			before := len(c.Violations())
			c.Step(s)
			if vs := c.Violations(); len(vs) < before {
				t.Fatalf("Step dropped violations: %d before, %d after", before, len(vs))
			}
			steps++
		}
		for _, v := range c.Violations() {
			if v.Step < 0 || v.Step >= steps {
				t.Fatalf("violation step %d out of range [0,%d)", v.Step, steps)
			}
		}
		c.Reset()
		if len(c.Violations()) != 0 {
			t.Fatal("violations survived Reset")
		}
		c.Step(Step{AS: 1, Edge: EdgeUp, Tag: true})
		if n := len(c.Violations()); n != 0 {
			t.Fatalf("reset checker flagged a clean first hop: %d violations", n)
		}
	})
}
