package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"repro/internal/experiments"
	"repro/internal/jsonl"
	"repro/internal/metrics"
	"repro/internal/obs/tsdb"
)

// TestFig12MatchesCommitted: -exp fig12 prints the fluid section of the
// committed results/testbed.txt byte for byte, and -exp fig12-packet its
// packet section (about 4 s, so not under -short). The committed figure
// is what the code prints.
func TestFig12MatchesCommitted(t *testing.T) {
	committed, err := os.ReadFile("../../results/testbed.txt")
	if err != nil {
		t.Fatal(err)
	}
	// `make testbed` keeps main's "# [fig12 done in …]" line and the
	// blank line after it: run timing, not the figure.
	committed = regexp.MustCompile(`(?m)^# \[fig12(-packet)? done in .*\]\n\n`).ReplaceAll(committed, nil)
	cut := bytes.Index(committed, []byte("== Packet-level testbed"))
	if cut < 0 {
		t.Fatal("results/testbed.txt has no packet-level section")
	}
	for _, tc := range []struct {
		name  string
		print func(io.Writer) error
		want  []byte
	}{
		{"fig12", printFig12, committed[:cut]},
		{"fig12-packet", printFig12Packet, committed[cut:]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "fig12-packet" && testing.Short() {
				t.Skip("the packet-level run takes seconds")
			}
			var got bytes.Buffer
			if err := tc.print(&got); err != nil {
				t.Fatal(err)
			}
			sameSection(t, tc.name, got.Bytes(), tc.want)
		})
	}
}

// sameSection fails t at the first line where got differs from the
// committed section want.
func sameSection(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d of the %s section: got %q, committed %q", i+1, name, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s section: got %d lines, committed %d", name, len(gotLines), len(wantLines))
}

// TestSimulationSectionsMatchCommitted: -exp table1 and -exp overhead
// print their sections of the committed results/simulation.txt byte for
// byte, with the flags `make figures` passes (the defaults). make
// reproduce compares only the .dat files; these two sections have none.
// The overhead section's UPDATE count and reconvergence time are what
// bgpsim's fixed per-message delay and MRAI produce.
func TestSimulationSectionsMatchCommitted(t *testing.T) {
	committed, err := os.ReadFile("../../results/simulation.txt")
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.Options{N: 1000, Flows: 5000, PairSamples: 1000, Seed: 1}
	for _, tc := range []struct {
		name  string
		head  string
		print func(io.Writer, experiments.Options) error
	}{
		{"table1", "== Table I:", printTableI},
		{"overhead", "== Extension: control-plane overhead", printOverhead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The section runs from its heading to main's "# [name done
			// in …]" timing line, which is not part of it.
			start := bytes.Index(committed, []byte(tc.head))
			end := bytes.Index(committed, []byte("# ["+tc.name+" done in "))
			if start < 0 || end < start {
				t.Fatalf("results/simulation.txt has no %s section", tc.name)
			}
			var got bytes.Buffer
			if err := tc.print(&got, o); err != nil {
				t.Fatal(err)
			}
			sameSection(t, tc.name, got.Bytes(), committed[start:end])
		})
	}
}

// TestFig7MatchesCommitted: -exp fig7 with the flags `make figures` passes
// (the defaults) writes the committed results/fig7.dat byte for byte. Fig. 7
// builds its route tables with bgp.ComputeAll, so this also holds the
// one-block build to the committed figure.
func TestFig7MatchesCommitted(t *testing.T) {
	want, err := os.ReadFile("../../results/fig7.dat")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := experiments.Options{N: 1000, Flows: 5000, PairSamples: 1000, Seed: 1}
	if err := run("fig7", o, dir, experiments.PaperScaleConfig{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig7.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fig7.dat: %d bytes, committed %d, not the same bytes", len(got), len(want))
	}
}

// TestFig8TSDBDumpPinned: the TSDB dump of CI's observer run,
// `-exp fig8 -n 200 -flows 500 -tsdb-log`, keeps its SHA-256. The dump's
// series lines are written by hand, so this holds them to the bytes a
// json.Encoder wrote for the same run (12,658 lines).
func TestFig8TSDBDumpPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("a fig8 run of ten simulations")
	}
	const want = "79f0fe90eee52bfaa4580242a7cc4e4d441b2462652c068650e051d064e77a6c"
	db := tsdb.NewStore()
	o := experiments.Options{N: 200, Flows: 500, PairSamples: 1000, Seed: 1, TSDB: db}
	if err := run("fig8", o, "", experiments.PaperScaleConfig{}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := db.WriteDump(jsonl.New(h)); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("fig8 tsdb dump sha256 %s, want %s", got, want)
	}
}

// TestSameSeedSameBytes runs two experiments that write data files twice
// each, with the same seed into two directories and a flight log beside
// them, and requires every .dat file and the flight log to come out
// byte-identical: the committed results/ are only reproducible if a seed
// fixes every byte, however the parallel workers interleave.
func TestSameSeedSameBytes(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		stderr, code := runMain(t, "-exp", "fig8,fig5a", "-n", "120", "-flows", "300", "-seed", "7",
			"-workers", "2", "-o", dir, "-flight-log", filepath.Join(dir, "flight.jsonl"))
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
	}
	files, err := filepath.Glob(filepath.Join(dirs[0], "*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("want fig8.dat and fig5a.dat, got %v", files)
	}
	for _, a := range append(files, filepath.Join(dirs[0], "flight.jsonl")) {
		first, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(filepath.Join(dirs[1], filepath.Base(a)))
		if err != nil {
			t.Fatal(err)
		}
		if len(first) == 0 || !bytes.Equal(first, second) {
			t.Errorf("%s: %d bytes on the first run, %d on the second, not the same bytes", filepath.Base(a), len(first), len(second))
		}
	}
}

// -flight-sample takes a fraction in (0, 1]: 1 records every flow, and a
// value the recorder would silently read as "every flow" is rejected.
func TestFlightSampleRange(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want bool
	}{
		{1, true}, {0.25, true}, {1e-9, true},
		{0, false}, {-0.5, false}, {1.5, false}, {math.NaN(), false}, {math.Inf(1), false},
	} {
		if got := validSample(tc.v); got != tc.want {
			t.Errorf("validSample(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

// Sizes the experiments would silently replace with a default are
// rejected; the zero "auto" values and the defaults pass.
func TestSizeFlagsRange(t *testing.T) {
	ok := func(n, flows, pairs int, rate float64, workers, stream, mem int) bool {
		return sizeError(n, flows, pairs, rate, workers, stream, mem) == nil
	}
	for _, tc := range []struct {
		name string
		got  bool
		want bool
	}{
		{"defaults", ok(1000, 5000, 1000, 0, 0, 0, 0), true},
		{"explicit", ok(1, 1, 1, 3.5, 2, 10, 1024), true},
		{"-n 0", ok(0, 5000, 1000, 0, 0, 0, 0), false},
		{"-n -5", ok(-5, 5000, 1000, 0, 0, 0, 0), false},
		{"-flows 0", ok(1000, 0, 1000, 0, 0, 0, 0), false},
		{"-flows -10", ok(1000, -10, 1000, 0, 0, 0, 0), false},
		{"-pairs 0", ok(1000, 5000, 0, 0, 0, 0, 0), false},
		{"-rate -3", ok(1000, 5000, 1000, -3, 0, 0, 0), false},
		{"-rate NaN", ok(1000, 5000, 1000, math.NaN(), 0, 0, 0), false},
		{"-rate +Inf", ok(1000, 5000, 1000, math.Inf(1), 0, 0, 0), false},
		{"-workers -1", ok(1000, 5000, 1000, 0, -1, 0, 0), false},
		{"-stream-flows -1", ok(1000, 5000, 1000, 0, 0, -1, 0), false},
		{"-mem-budget-mb -1", ok(1000, 5000, 1000, 0, 0, 0, -1), false},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: accepted = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestMainProcess is the program itself when the test binary is started
// with arguments after "--", as runMain does; a plain go test skips it.
func TestMainProcess(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("runs main for runMain's child processes")
	}
	os.Args = append([]string{"mifo-sim"}, flag.Args()...)
	main()
}

// runMain runs the program with args in a child process and returns its
// stderr and exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainProcess$", "--"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// A log that could not be written fails the run: exit 1, the error on
// stderr. /dev/full fails every write; each log gets an experiment that
// puts records into it.
func TestLogWriteFailuresExitOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full to fail the writes: %v", err)
	}
	for _, tc := range []struct {
		log, exp string
	}{
		{"-flight-log", "fig5a"},
		{"-span-log", "resilience"},
		{"-tsdb-log", "table1"},
	} {
		stderr, code := runMain(t, "-exp", tc.exp, "-n", "60", "-flows", "100", tc.log, "/dev/full")
		if code != 1 || !strings.Contains(stderr, "no space left on device") {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 naming the write error", tc.log, code, stderr)
		}
	}
}

// saveSeries reports a .dat file it could not create or write: the
// directory is missing, or the file is /dev/full, which fails every write.
func TestSaveSeriesReportsWriteErrors(t *testing.T) {
	rows := metrics.Series{Name: "s", Rows: []metrics.Row{{X: 1, Y: 2}}}
	if err := saveSeries(filepath.Join(t.TempDir(), "absent"), "fig", rows); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("saveSeries into a missing directory: got %v, want a not-exist error", err)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full to fail the writes: %v", err)
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "fig.dat")); err != nil {
		t.Fatal(err)
	}
	if err := saveSeries(dir, "fig", rows); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("saveSeries into /dev/full: got %v, want ENOSPC", err)
	}
}
