package topo

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestParseBasic(t *testing.T) {
	input := `# a comment
174|3356|0
174|1299|0

3356|65001|-1
1299|65001|-1
`
	g, asns, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.PCLinks() != 2 || g.PeerLinks() != 2 {
		t.Fatalf("pc=%d peer=%d, want 2/2", g.PCLinks(), g.PeerLinks())
	}
	idx := map[int]int{}
	for i, a := range asns {
		idx[a] = i
	}
	if r, ok := g.Rel(idx[3356], idx[65001]); !ok || r != Customer {
		t.Errorf("3356->65001 = %v,%v, want customer", r, ok)
	}
	if r, ok := g.Rel(idx[174], idx[3356]); !ok || r != Peer {
		t.Errorf("174-3356 = %v,%v, want peer", r, ok)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"1|2",           // too few fields
		"x|2|0",         // bad AS a
		"1|y|0",         // bad AS b
		"1|2|7",         // bad relationship
		"1|2|-1\n1|2|0", // duplicate link
	}
	for _, in := range cases {
		if _, _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail to parse", in)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	g, err := Generate(GenConfig{N: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	g2, _, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if g2.N() != g.N() || g2.Links() != g.Links() ||
		g2.PCLinks() != g.PCLinks() || g2.PeerLinks() != g.PeerLinks() {
		t.Fatalf("round trip mismatch: %d/%d/%d/%d vs %d/%d/%d/%d",
			g2.N(), g2.Links(), g2.PCLinks(), g2.PeerLinks(),
			g.N(), g.Links(), g.PCLinks(), g.PeerLinks())
	}
}

func TestWriteWithASNMapping(t *testing.T) {
	g, err := NewBuilder(2).AddPC(0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g, []int{15169, 32934}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "15169|32934|-1") {
		t.Errorf("output missing mapped ASNs:\n%s", buf.String())
	}
}

func TestParseEmpty(t *testing.T) {
	g, asns, err := Parse(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || len(asns) != 0 {
		t.Errorf("empty parse gave %d nodes", g.N())
	}
}

// failingWriter refuses every write, the way a full disk does.
type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// A graph this small fits Write's and WriteDOT's buffers whole, so the
// final flush is the only write that reaches the writer: its error is the
// writer's only report that the topology was lost.
func TestWritersReportFailedFlush(t *testing.T) {
	g, err := NewBuilder(3).AddPC(0, 1).AddPeer(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(failingWriter{}, g, nil); !errors.Is(err, errDiskFull) {
		t.Errorf("Write into a failing writer: got %v, want %v", err, errDiskFull)
	}
	if err := WriteDOT(failingWriter{}, g, "lost"); !errors.Is(err, errDiskFull) {
		t.Errorf("WriteDOT into a failing writer: got %v, want %v", err, errDiskFull)
	}
}
