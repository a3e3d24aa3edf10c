package traffic

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	flows, err := Uniform(UniformConfig{N: 50, Flows: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, flows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(flows) {
		t.Fatalf("round trip lost flows: %d != %d", len(back), len(flows))
	}
	for i := range flows {
		if flows[i] != back[i] {
			t.Fatalf("flow %d: %+v != %+v", i, flows[i], back[i])
		}
	}
}

func TestReadCSVWithoutHeader(t *testing.T) {
	in := "0,1,2,8e+07,0.5\n1,3,4,8e+07,0.6\n"
	flows, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 || flows[1].Src != 3 || flows[0].Arrival != 0.5 {
		t.Fatalf("parsed %+v", flows)
	}
}

func TestReadCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"bad-int":    "x,1,2,8e7,0\n",
		"bad-float":  "0,1,2,yolo,0\n",
		"bad-fields": "0,1,2\n",
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if flows, err := ReadCSV(strings.NewReader("")); err != nil || flows != nil {
		t.Errorf("empty input should parse to nil, got %v, %v", flows, err)
	}
}

// failingWriter refuses every write, the way a full disk does.
type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// Two flows fit the CSV writer's buffer, so the final flush is the only
// write that reaches the writer: its error is the only report that the
// workload was lost.
func TestWriteCSVReportsFailedFlush(t *testing.T) {
	flows, err := Uniform(UniformConfig{N: 50, Flows: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(failingWriter{}, flows); !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteCSV into a failing writer: got %v, want %v", err, errDiskFull)
	}
}
