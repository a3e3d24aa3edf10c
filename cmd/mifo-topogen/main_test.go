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
	os.Args = append([]string{"mifo-topogen"}, flag.Args()...)
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

// Both files mifo-topogen writes report a failed write with exit 1 and the
// error on stderr: /dev/full fails every write, and a missing directory
// fails the create.
func TestWriteFailuresExitOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full to fail the writes: %v", err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"topology", []string{"-o", "/dev/full"}, "no space left on device"},
		{"dot", []string{"-dot", "/dev/full"}, "no space left on device"},
		{"topology dir", []string{"-o", filepath.Join(t.TempDir(), "absent", "t.txt")}, "no such file or directory"},
	} {
		stderr, code := runMain(t, append([]string{"-n", "60", "-stats=false"}, tc.args...)...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 naming %q", tc.name, code, stderr, tc.want)
		}
	}
}
