package netsim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/traffic"
)

func TestResultsWriteCSV(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0.001},
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIFO})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "id,src,dst") {
		t.Errorf("missing header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "true") {
		t.Errorf("deflected flow row should record used_alt=true: %q", lines[2])
	}
	if !strings.Contains(lines[1], "done") || !strings.Contains(lines[2], "done") {
		t.Errorf("completed flows should be state=done:\n%s", out)
	}
}

// failingWriter refuses every write, the way a full disk does.
type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// Two flows fit the CSV writer's buffer, so the final flush is the only
// write that reaches the writer: its error is the only report that the
// results were lost.
func TestResultsWriteCSVReportsFailedFlush(t *testing.T) {
	g := fig2aGraph(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0},
		{ID: 1, Src: 1, Dst: 0, SizeBits: 10 * mb, Arrival: 0.001},
	}
	res, err := Run(g, flows, Config{Policy: PolicyMIFO})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(failingWriter{}); !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteCSV into a failing writer: got %v, want %v", err, errDiskFull)
	}
}
