package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

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
