package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMainProcess is the program itself when the test binary is started
// with arguments after "--", as runMain does; a plain go test skips it.
func TestMainProcess(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("runs main for runMain's child processes")
	}
	os.Args = append([]string{"mifo-replay"}, flag.Args()...)
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

// Every file mifo-replay writes reports a failed write with exit 1 and the
// error on stderr: /dev/full fails every write, and a missing directory
// fails the create.
func TestWriteFailuresExitOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full to fail the writes: %v", err)
	}
	dir := t.TempDir()
	workload := filepath.Join(dir, "w.csv")
	if stderr, code := runMain(t, "-n", "60", "-flows", "300", "-gen-workload", workload); code != 0 {
		t.Fatalf("generating the workload: exit %d, stderr %q", code, stderr)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"workload", []string{"-n", "60", "-flows", "300", "-gen-workload", "/dev/full"}, "no space left on device"},
		{"results", []string{"-n", "60", "-workload", workload, "-results", "/dev/full"}, "no space left on device"},
		{"results dir", []string{"-n", "60", "-workload", workload, "-results", filepath.Join(dir, "absent", "r.csv")}, "no such file or directory"},
	} {
		stderr, code := runMain(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 naming %q", tc.name, code, stderr, tc.want)
		}
	}
}
