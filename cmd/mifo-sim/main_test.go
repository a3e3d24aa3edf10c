package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
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
			if bytes.Equal(got.Bytes(), tc.want) {
				return
			}
			gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(tc.want), "\n")
			for i := range min(len(gotLines), len(wantLines)) {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("line %d of the %s section: got %q, committed %q", i+1, tc.name, gotLines[i], wantLines[i])
				}
			}
			t.Fatalf("%s section: got %d lines, committed %d", tc.name, len(gotLines), len(wantLines))
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

// TestSameSeedSameBytes runs two experiments that write data files twice
// each, with the same seed into two directories, and requires every .dat
// file to come out byte-identical: the committed results/ are only
// reproducible if a seed fixes every byte, however the parallel workers
// interleave.
func TestSameSeedSameBytes(t *testing.T) {
	o := experiments.Options{N: 120, Flows: 300, Seed: 7, Workers: 2}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		for _, exp := range []string{"fig8", "fig5a"} {
			if err := run(exp, o, dir, experiments.PaperScaleConfig{}); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join(dirs[0], "*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("want fig8.dat and fig5a.dat, got %v", files)
	}
	for _, a := range files {
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
