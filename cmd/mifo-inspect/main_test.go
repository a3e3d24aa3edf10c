package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Log fixtures, one or two records each, in the formats mifo-sim writes.
const (
	flightDeflected = `{"seq":1,"kind":"flow-path","flow":1,"dst":9,"steps":[{"router":-1,"as":4,"edge":"across","deflected":true},{"router":-1,"as":9,"edge":"none"}],"verdict":"path"}` + "\n"
	flightPlain     = `{"seq":2,"kind":"packet","flow":2,"dst":9,"steps":[{"router":0,"as":9,"edge":"none"}],"verdict":"delivered"}` + "\n"
	flightViolating = `{"seq":3,"kind":"flow-path","flow":3,"dst":9,"steps":[{"router":-1,"as":9,"edge":"up"},{"router":-1,"as":9,"edge":"none"}],"verdict":"path","violations":[{"invariant":"loop-free","step":1}]}` + "\n"

	spanRoot  = `{"trace":1,"id":1,"name":"conv_link_down","start_ns":100,"end_ns":900,"node":-1,"a":6,"b":22}` + "\n"
	spanChild = `{"trace":1,"id":2,"parent":1,"name":"route_recompute","start_ns":200,"end_ns":300,"node":-1}` + "\n"

	tsdbHeader = `{"kind":"tsdb","spec":{"util":"u","threshold":0.9,"window":10,"max_gap":100}}` + "\n"
	tsdbSeries = `{"kind":"series","name":"u","labels":["link"],"values":["1->2"],"points":[[0,0.5],[10,0.95],[20,0.99],[30,0.4]]}` + "\n"
)

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestRunExitCodes holds the one exit rule across every subcommand: 0
// for a printed report, 2 for a printed report whose gate failed, 1 when
// no report could be produced.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	file := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	flight := file("flight.jsonl", flightDeflected+flightPlain)
	flightBad := file("flight-violating.jsonl", flightDeflected+flightViolating)
	flightCut := file("flight-cut.jsonl", flightDeflected+flightPlain[:40])
	flightForeign := file("flight-foreign.jsonl", flightDeflected+`{"kind":"batch-seal","batch":1,"records":1}`+"\n")
	spans := file("spans.jsonl", spanRoot+spanChild)
	spansBad := file("spans-rootonly.jsonl", spanRoot)
	spansCut := file("spans-cut.jsonl", spanRoot+spanChild[:30])
	dump := file("tsdb.jsonl", tsdbHeader+tsdbSeries)
	dumpCut := file("tsdb-cut.jsonl", tsdbHeader+tsdbSeries[:50])
	topoCut := file("topo.txt", "0|1|-1\n1|2\n")

	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
		want  int
	}{
		{"no args", nil, "", 1},
		{"unknown subcommand", []string{"trace", flight}, "", 1},
		{"unknown flag", []string{"flight", "-verify", flight}, "", 1},
		{"two logs", []string{"flight", flight, flight}, "", 1},
		{"missing log", []string{"spans", filepath.Join(dir, "absent.jsonl")}, "", 1},

		{"flight good", []string{"flight", flight}, "", 0},
		{"flight stdin", []string{"flight"}, flightDeflected, 0},
		{"flight drill", []string{"flight", "-packet", "2", flight}, "", 0},
		{"flight drill misses", []string{"flight", "-flow", "7", flight}, "", 1},
		{"flight violations", []string{"flight", flightBad}, "", 2},
		{"flight truncated", []string{"flight", flightCut}, "", 1},
		{"flight foreign kind", []string{"flight", flightForeign}, "", 1},

		{"spans good", []string{"spans", "-events", "-min-events", "1", spans}, "", 0},
		{"spans unproven", []string{"spans", spansBad}, "", 2},
		{"spans too few", []string{"spans", "-min-events", "2", spans}, "", 2},
		{"spans truncated", []string{"spans", spansCut}, "", 1},
		{"spans foreign kind", []string{"spans", flight}, "", 1},

		{"tsdb good", []string{"tsdb", "-min-episodes", "1", dump}, "", 0},
		{"tsdb json with flight", []string{"tsdb", "-json", "-flight", flight, dump}, "", 0},
		{"tsdb too few", []string{"tsdb", "-min-episodes", "2", dump}, "", 2},
		{"tsdb truncated", []string{"tsdb", dumpCut}, "", 1},
		{"tsdb foreign kind", []string{"tsdb", flight}, "", 1},
		{"tsdb corrupt flight join", []string{"tsdb", "-flight", flightCut, dump}, "", 1},

		{"rib good", []string{"rib", "-n", "60", "-src", "5", "-dst", "0", "-hops"}, "", 0},
		{"rib same AS", []string{"rib", "-n", "60", "-src", "3", "-dst", "3"}, "", 1},
		{"rib truncated topology", []string{"rib", "-in", topoCut, "-src", "1", "-dst", "0"}, "", 1},
		{"rib operand", []string{"rib", "-src", "5", flight}, "", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", got, tc.want, stderr.String())
			}
			if got != 1 && stdout.Len() == 0 {
				t.Errorf("exit %d printed no report", got)
			}
			if got != 0 && stderr.Len() == 0 {
				t.Errorf("exit %d said nothing on stderr", got)
			}
		})
	}

	t.Run("failed write", func(t *testing.T) {
		var stderr bytes.Buffer
		if got := run([]string{"flight", flight}, nil, failingWriter{}, &stderr); got != 1 {
			t.Fatalf("exit %d on a failed write, want 1", got)
		}
		if !strings.Contains(stderr.String(), "disk full") {
			t.Errorf("stderr %q does not name the write error", stderr.String())
		}
	})

	t.Run("missing log names the open error", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		run([]string{"flight", filepath.Join(dir, "absent.jsonl")}, nil, &stdout, &stderr)
		if !strings.Contains(stderr.String(), "no such file or directory") {
			t.Errorf("stderr %q does not name the open error", stderr.String())
		}
	})
}

// TestNegativeFlagsAreUsageErrors: a negative count, threshold or window
// exits 1 naming the flag, before any report is printed (it used to
// panic, or fall back to a default silently).
func TestNegativeFlagsAreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(log, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ sub, flag, value string }{
		{"flight", "-top", "-1"},
		{"tsdb", "-top", "-1"},
		{"tsdb", "-threshold", "-0.5"},
		{"tsdb", "-window", "-3"},
		{"tsdb", "-min-episodes", "-1"},
		{"spans", "-min-events", "-2"},
	} {
		t.Run(tc.sub+tc.flag, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run([]string{tc.sub, tc.flag, tc.value, log}, nil, &stdout, &stderr)
			if got != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.flag+" must not be negative") {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming %s and no report",
					got, stdout.String(), stderr.String(), tc.flag)
			}
		})
	}
}

// TestJoinFlightRejectsCorruptLog: a flight log that is cut off or holds
// a line that is not a journey is an error naming the line, which run
// turns into exit status 1, not a silent under-count.
func TestJoinFlightRejectsCorruptLog(t *testing.T) {
	for _, tc := range []struct {
		name, log string
		badLine   string // "" when the log is whole
	}{
		{"whole", flightDeflected + flightPlain + flightDeflected, ""},
		{"truncated mid-line", flightDeflected + flightPlain + flightDeflected[:40], "line 3"},
		{"not a journey", flightDeflected + `{"kind":"batch-seal","batch":1,"records":1}` + "\n" + flightPlain, "line 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "flight.jsonl")
			if err := os.WriteFile(path, []byte(tc.log), 0o644); err != nil {
				t.Fatal(err)
			}
			snap := &snapshot{}
			err := joinFlight(snap, path)
			if tc.badLine == "" {
				if err != nil || snap.DeflectionsByAS["4"] != 2 || len(snap.DeflectionsByAS) != 1 {
					t.Fatalf("deflections by AS %v, err %v; want AS 4: 2", snap.DeflectionsByAS, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.badLine) {
				t.Fatalf("err = %v, want one naming %s", err, tc.badLine)
			}
		})
	}
}
